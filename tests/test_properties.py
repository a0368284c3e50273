"""Property-based tests (hypothesis).

The headline property is differential: random programs compiled at every
optimization level and run on the Warp simulator must match the reference
AST interpreter bit-for-bit.  Supporting properties cover the lexer, the
processor-sharing resource, and scheduling invariants.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import CompileOptions
from repro.cluster.events import Simulator
from repro.cluster.network import SharedResource
from repro.driver.sequential import SequentialCompiler
from repro.lang.diagnostics import DiagnosticSink
from repro.lang.lexer import tokenize
from repro.lang.source import SourceFile
from repro.lang.tokens import TokenKind
from repro.warpsim.array_runner import run_module

from helpers import object_functions, parse_ok
from reference_interp import interpret_module


# ---------------------------------------------------------------------------
# Random program generation
# ---------------------------------------------------------------------------

_FLOAT_VARS = ["x", "y", "t", "u"]
_INT_VARS = ["n", "m"]


@st.composite
def float_expr(draw, depth: int, in_loop: bool):
    choice = draw(st.integers(0, 7 if depth > 0 else 2))
    if choice == 0:
        value = draw(
            st.floats(
                min_value=-4.0, max_value=4.0, allow_nan=False, width=32
            )
        )
        literal = abs(round(value, 3))
        text = f"{literal}"
        return f"-{text}" if value < 0 else text
    if choice == 1:
        return draw(st.sampled_from(_FLOAT_VARS))
    if choice == 2:
        index = "i" if in_loop else str(draw(st.integers(0, 7)))
        return f"a[{index}]"
    if choice == 6:
        inner = draw(float_expr(depth - 1, in_loop))
        # sqrt over abs keeps the argument in the unit's domain.
        fn = draw(st.sampled_from(["abs", "sqrt(abs", ""]))
        if fn == "abs":
            return f"abs({inner})"
        if fn:
            return f"sqrt(abs({inner}))"
        return inner
    if choice == 7:
        left = draw(float_expr(depth - 1, in_loop))
        right = draw(float_expr(depth - 1, in_loop))
        fn = draw(st.sampled_from(["min", "max"]))
        return f"{fn}({left}, {right})"
    left = draw(float_expr(depth - 1, in_loop))
    right = draw(float_expr(depth - 1, in_loop))
    op = draw(st.sampled_from(["+", "-", "*"]))
    return f"({left} {op} {right})"


@st.composite
def condition(draw, in_loop: bool):
    left = draw(float_expr(1, in_loop))
    right = draw(float_expr(1, in_loop))
    op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
    return f"{left} {op} {right}"


@st.composite
def statements(draw, depth: int, in_loop: bool, indent: str):
    count = draw(st.integers(1, 3))
    lines = []
    for _ in range(count):
        kind = draw(st.integers(0, 5 if depth > 0 else 3))
        if kind in (0, 1):
            var = draw(st.sampled_from(_FLOAT_VARS))
            expr = draw(float_expr(2, in_loop))
            lines.append(f"{indent}{var} := {expr};")
        elif kind == 2:
            index = "i" if in_loop else str(draw(st.integers(0, 7)))
            expr = draw(float_expr(2, in_loop))
            lines.append(f"{indent}a[{index}] := {expr};")
        elif kind == 3:
            expr = draw(float_expr(1, in_loop))
            lines.append(f"{indent}send({expr});")
        elif kind == 4 and not in_loop:
            high = draw(st.integers(0, 7))
            body = draw(statements(depth - 1, True, indent + "  "))
            lines.append(f"{indent}for i := 0 to {high} do")
            lines.append(body)
            lines.append(f"{indent}end;")
        else:
            cond = draw(condition(in_loop))
            then_body = draw(statements(depth - 1, in_loop, indent + "  "))
            lines.append(f"{indent}if {cond} then")
            lines.append(then_body)
            lines.append(f"{indent}end;")
    return "\n".join(lines)


@st.composite
def random_program(draw):
    body = draw(statements(2, False, "    "))
    return (
        "module p\n"
        "section s (cells 0..0)\n"
        "  function main()\n"
        "  var x, y, t, u: float; n, m, i: int; a: array[8] of float;\n"
        "  begin\n"
        "    receive(x);\n"
        "    receive(y);\n"
        f"{body}\n"
        "    send(t);\n"
        "    send(u);\n"
        "  end\n"
        "end\n"
        "end\n"
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    source=random_program(),
    inputs=st.lists(
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, width=32),
        min_size=2,
        max_size=2,
    ),
)
def test_compiled_output_matches_reference_interpreter(source, inputs):
    """Differential oracle across all optimization levels."""
    module, _sema = parse_ok(source)
    expected = interpret_module(module, list(inputs))
    for opt_level in (0, 1, 2):
        compiler = SequentialCompiler(CompileOptions(opt_level=opt_level))
        result = compiler.compile(source)
        outputs = run_module(result.download, list(inputs)).outputs
        assert outputs == expected, (
            f"mismatch at -O{opt_level}: {outputs} != {expected}"
        )


@settings(max_examples=20, deadline=None)
@given(
    source=random_program(),
    inputs=st.lists(
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, width=32),
        min_size=2,
        max_size=2,
    ),
)
def test_unrolled_output_matches_reference_interpreter(source, inputs):
    """Loop unrolling is a pure transformation: unrolled programs still
    match the reference interpreter exactly."""
    from helpers import compile_with_ir_transform
    from repro.opt.unroll import unroll_constant_loops

    module, _sema = parse_ok(source)
    expected = interpret_module(module, list(inputs))

    def unroll_everything(module_ir):
        for fn in module_ir.all_functions():
            unroll_constant_loops(fn, max_trip=8)

    download = compile_with_ir_transform(source, unroll_everything)
    outputs = run_module(download, list(inputs)).outputs
    assert outputs == expected


@settings(max_examples=30, deadline=None)
@given(source=random_program())
def test_parallel_digest_equals_sequential_digest(source):
    from repro.driver.master import ParallelCompiler
    from repro.parallel.local import SerialBackend

    seq = SequentialCompiler().compile(source)
    par = ParallelCompiler(backend=SerialBackend()).compile(source)
    assert par.digest == seq.digest


# ---------------------------------------------------------------------------
# Lexer properties
# ---------------------------------------------------------------------------

_token_text = st.one_of(
    st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True),
    st.integers(0, 10 ** 6).map(str),
    st.sampled_from(
        [":=", "..", "<=", ">=", "<>", "+", "-", "*", "/", "%",
         "(", ")", "[", "]", ",", ";", ":", "=", "<", ">"]
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_token_text, max_size=30))
def test_lexer_roundtrip(parts):
    """Tokens separated by spaces re-lex to the same kinds and texts."""
    text = " ".join(parts)
    sink = DiagnosticSink()
    tokens = tokenize(SourceFile("<p>", text), sink)
    assert not sink.has_errors
    rebuilt = " ".join(t.text for t in tokens[:-1])
    sink2 = DiagnosticSink()
    tokens2 = tokenize(SourceFile("<p>", rebuilt), sink2)
    assert [
        (t.kind, t.text) for t in tokens
    ] == [(t.kind, t.text) for t in tokens2]


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abc123 .:=<>+-*/()[];,\n\t%", max_size=80))
def test_lexer_never_crashes_and_always_ends_with_eof(text):
    sink = DiagnosticSink()
    tokens = tokenize(SourceFile("<p>", text), sink)
    assert tokens[-1].kind is TokenKind.EOF
    assert [t for t in tokens if t.kind is TokenKind.EOF] == [tokens[-1]]


# ---------------------------------------------------------------------------
# Processor-sharing resource properties
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    rate=st.floats(min_value=0.5, max_value=100.0),
)
def test_shared_resource_serves_all_tasks(demands, rate):
    sim = Simulator()
    resource = SharedResource(sim, "r", rate)
    finished = []
    for demand in demands:
        resource.submit(demand, lambda: finished.append(sim.now))
    end = sim.run()
    assert len(finished) == len(demands)
    total = sum(demands)
    # All work served: end time >= total/rate (conservation) and
    # <= total/rate + epsilon (single PS resource is work-conserving).
    assert end >= total / rate - 1e-6
    assert end <= total / rate + 1e-3 * len(demands) + 1e-6


@settings(max_examples=100, deadline=None)
@given(
    demands=st.lists(
        st.floats(min_value=1.0, max_value=100.0),
        min_size=2,
        max_size=8,
    )
)
def test_shared_resource_equal_demands_finish_together(demands):
    sim = Simulator()
    resource = SharedResource(sim, "r", 10.0)
    finish = []
    demand = demands[0]
    for _ in demands:
        resource.submit(demand, lambda: finish.append(sim.now))
    sim.run()
    assert max(finish) - min(finish) < 1e-6


# ---------------------------------------------------------------------------
# Scheduling invariants on compiled workloads
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(source=random_program())
def test_schedule_resource_and_drain_invariants(source):
    """Every generated program's schedule obeys the bundle rules."""
    for obj in object_functions(source):
        for block in obj.blocks:
            end = len(block.bundles)
            for cycle, bundle in enumerate(block.bundles):
                fus = [op.fu for op in bundle.all_ops()]
                assert len(fus) == len(set(fus)), "FU oversubscribed"
                if not _is_pipelined_label(block.label):
                    for op in bundle.all_ops():
                        if op.dest is not None:
                            assert cycle + op.latency <= end, "no drain"


def _is_pipelined_label(label: str) -> bool:
    return ".pl." in label


# ---------------------------------------------------------------------------
# The seeded fuzz generator: every output is a valid module
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", range(4))
def test_fuzz_generator_emits_valid_modules(block):
    """200 consecutive seeds (50 per block, across size classes) all
    parse and pass semantic checks — the generator's validity contract
    for the differential oracle."""
    from repro.fuzz import config_for_size_class, generate_program
    from repro.lang.parser import parse_text
    from repro.lang.sema import check_module

    size_class = ("tiny", "small", "medium", "small")[block]
    config = config_for_size_class(size_class)
    for seed in range(block * 50, block * 50 + 50):
        program = generate_program(seed, config)
        sink = DiagnosticSink()
        module = parse_text(program.source, sink)
        assert not sink.has_errors, (
            f"{size_class} seed {seed} failed to parse:\n{sink.render()}"
        )
        check_module(module, sink)
        assert not sink.has_errors, (
            f"{size_class} seed {seed} failed sema:\n{sink.render()}"
        )
        assert len(program.inputs()) == program.stream_arity


def test_fuzz_generator_inputs_match_receive_count():
    """The generated input vector always satisfies main's receives, so
    the reference interpreter never starves."""
    from repro.fuzz import generate_program

    for seed in range(20):
        program = generate_program(seed)
        module, _ = parse_ok(program.source)
        interpret_module(module, program.inputs())  # must not trap
