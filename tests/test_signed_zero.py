"""Signed zero: 0.0 == -0.0, but the two are different constants.

Every output is compared with its sign (``math.copysign``), because the
plain ``==`` the oracles use cannot tell ``0.0`` from ``-0.0``.
"""

import math

import pytest

from reference_interp import interpret_module

from helpers import compile_and_run, parse_ok, wrap_function


def signed(values):
    return [(value, math.copysign(1.0, value)) for value in values]


def assert_matches_reference(body, inputs):
    source = wrap_function(body)
    module, _sema = parse_ok(source)
    expected = interpret_module(module, list(inputs))
    for opt_level in (0, 1, 2):
        outputs = compile_and_run(source, list(inputs), opt_level).outputs
        assert signed(outputs) == signed(expected), f"-O{opt_level}"


def test_cse_keeps_times_zero_and_times_minus_zero_apart():
    """Keyed as one expression, both products sent 0.0."""
    assert_matches_reference(
        "function main()\nvar x, a, b: float;\nbegin\n"
        "receive(x); a := x * 0.0; b := x * -0.0; send(a); send(b);\nend",
        [1.0],
    )


def test_gconst_does_not_merge_zero_with_minus_zero():
    """Met as one constant, the join sent 0.0 on the else arm."""
    assert_matches_reference(
        "function main()\nvar x, t: float;\nbegin\n"
        "receive(x);\n"
        "if x > 0.0 then t := 0.0; else t := -0.0; end;\n"
        "send(t);\nend",
        [-1.0],
    )


@pytest.mark.xfail(
    strict=True,
    reason="fold rewrites x + 0.0 to x, but -0.0 + 0.0 is 0.0 (ROADMAP)",
)
def test_fold_keeps_plus_zero_for_minus_zero():
    assert_matches_reference(
        "function main()\nvar x, a, b: float;\nbegin\n"
        "receive(x); a := x + 0.0; b := x + -0.0; send(a); send(b);\nend",
        [-0.0],
    )
