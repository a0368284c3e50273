"""Lowering: typed AST -> three-address IR (start of compiler phase 2).

Scalars become virtual registers; arrays become statically allocated frame
slots in the cell's data memory.  Loops and conditionals become explicit
control flow.  Implicit int->float widenings from semantic analysis become
explicit ITOF instructions.

Lowering of one function needs only that function's AST plus the *types* of
its section's other functions (for calls) — so lowering, like the rest of
phases 2-3, runs independently per function in the parallel compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..lang import ast_nodes as ast
from ..lang.types import ArrayType, FLOAT, INT, Type, VOID
from .builder import IRBuilder
from .cfg import FunctionIR, ModuleIR
from .instructions import Opcode
from .values import Const, FrameArray, IR_FLOAT, IR_INT, Value, VReg

_BINARY_OPCODES = {
    "+": Opcode.ADD,
    "-": Opcode.SUB,
    "*": Opcode.MUL,
    "/": Opcode.DIV,
    "%": Opcode.MOD,
    "=": Opcode.CEQ,
    "<>": Opcode.CNE,
    "<": Opcode.CLT,
    "<=": Opcode.CLE,
    ">": Opcode.CGT,
    ">=": Opcode.CGE,
    "and": Opcode.AND,
    "or": Opcode.OR,
}

_COMPARISON_SET = {"=", "<>", "<", "<=", ">", ">="}


def ir_type_of(source_type: Type) -> str:
    """Map a scalar source type to its IR type."""
    if source_type == INT:
        return IR_INT
    if source_type == FLOAT:
        return IR_FLOAT
    raise ValueError(f"no scalar IR type for {source_type}")


@dataclass
class _CalleeInfo:
    """What lowering needs to know about a callable: its signature."""

    param_types: List[Type]
    return_type: Type


class LoweringError(Exception):
    """Internal error: lowering ran on an AST sema did not fully check."""


class FunctionLowerer:
    """Lowers a single, semantically checked function to IR."""

    def __init__(self, section: ast.Section, function: ast.Function):
        self._fn = function
        self._callees: Dict[str, _CalleeInfo] = {
            f.name: _CalleeInfo([p.type for p in f.params], f.return_type)
            for f in section.functions
        }
        return_type = (
            None if function.return_type == VOID else ir_type_of(function.return_type)
        )
        self._ir = FunctionIR(
            name=function.name,
            section_name=section.name,
            return_type=return_type,
            source_lines=function.line_count(),
        )
        self._builder = IRBuilder(self._ir)
        self._vars: Dict[str, VReg] = {}
        self._arrays: Dict[str, FrameArray] = {}

    def lower(self) -> FunctionIR:
        builder = self._builder
        entry = builder.new_block("entry")
        builder.set_block(entry)
        self._bind_storage()
        for stmt in self._fn.body:
            self._lower_stmt(stmt)
        if not builder.block_terminated():
            # Implicit fall-off-the-end return (void value for typed
            # functions is a checked error in sema only when there is no
            # return at all; a fall-through path returns a zero value).
            if self._ir.return_type is None:
                builder.ret()
            else:
                zero = Const(
                    0 if self._ir.return_type == IR_INT else 0.0,
                    self._ir.return_type,
                )
                builder.ret(zero)
        self._ir.remove_unreachable_blocks()
        self._ir.validate()
        return self._ir

    def _bind_storage(self) -> None:
        """Assign registers to scalars and frame offsets to arrays."""
        for param in self._fn.params:
            reg = self._builder.vreg(ir_type_of(param.type))
            self._vars[param.name] = reg
            self._ir.param_regs.append(reg)
        offset = 0
        for decl in self._fn.locals:
            if isinstance(decl.type, ArrayType):
                array = FrameArray(
                    name=decl.name,
                    element_type=ir_type_of(decl.type.element),
                    length=decl.type.length,
                    offset=offset,
                )
                offset += decl.type.length
                self._arrays[decl.name] = array
                self._ir.arrays.append(array)
            else:
                ir_type = ir_type_of(decl.type)
                reg = self._builder.vreg(ir_type)
                self._vars[decl.name] = reg
                # Locals start at zero, as the era's stack-less cells did.
                self._builder.mov(reg, Const(0 if ir_type == IR_INT else 0.0, ir_type))

    # -- statements ---------------------------------------------------------

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if self._builder.block_terminated():
            # Code after return within the same block: unreachable; give it
            # its own block so lowering stays structural (DCE removes it).
            dead = self._builder.new_block("dead")
            self._builder.set_block(dead)
        if isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.SendStmt):
            self._builder.send(self._lower_expr(stmt.value))
        elif isinstance(stmt, ast.ReceiveStmt):
            self._lower_receive(stmt)
        elif isinstance(stmt, ast.CallStmt):
            self._lower_call(stmt.call, want_result=False)
        else:  # pragma: no cover - exhaustive over AST statements
            raise LoweringError(f"unhandled statement {type(stmt).__name__}")

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            reg = self._vars.get(target.name)
            if reg is None:
                raise LoweringError(f"assignment to non-scalar {target.name!r}")
            value = self._coerce(self._lower_expr(stmt.value), reg.type)
            self._builder.mov(reg, value)
        elif isinstance(target, ast.IndexExpr):
            array = self._array_of(target)
            index = self._lower_expr(target.index)
            value = self._coerce(self._lower_expr(stmt.value), array.element_type)
            self._builder.store(array, index, value)
        else:
            raise LoweringError("invalid assignment target survived sema")

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        builder = self._builder
        cond = self._lower_expr(stmt.condition)
        then_block = builder.new_block("if.then")
        join_block = builder.new_block("if.join")
        else_block = builder.new_block("if.else") if stmt.else_body else join_block
        builder.br(cond, then_block, else_block)

        builder.set_block(then_block)
        for s in stmt.then_body:
            self._lower_stmt(s)
        if not builder.block_terminated():
            builder.jmp(join_block)

        if stmt.else_body:
            builder.set_block(else_block)
            for s in stmt.else_body:
                self._lower_stmt(s)
            if not builder.block_terminated():
                builder.jmp(join_block)

        builder.set_block(join_block)

    def _lower_for(self, stmt: ast.ForStmt) -> None:
        builder = self._builder
        var = self._vars.get(stmt.var)
        if var is None:
            raise LoweringError(f"loop over non-scalar {stmt.var!r}")
        low = self._coerce(self._lower_expr(stmt.low), IR_INT)
        high = self._coerce(self._lower_expr(stmt.high), IR_INT)
        step_value = 1
        if stmt.step is not None:
            step_value = _constant_int(stmt.step)
            if step_value is None or step_value == 0:
                raise LoweringError("for-step must be a nonzero integer constant")
        builder.mov(var, low)
        # Hoist the bound into a dedicated register so the loop body cannot
        # clobber it through the user variable (Pascal 'to' semantics).
        bound = builder.vreg(IR_INT)
        builder.mov(bound, high)

        header = builder.new_block("for.header")
        body = builder.new_block("for.body")
        exit_block = builder.new_block("for.exit")
        builder.jmp(header)

        builder.set_block(header)
        compare = Opcode.CLE if step_value > 0 else Opcode.CGE
        cond = builder.binary(compare, var, bound, IR_INT)
        builder.br(cond, body, exit_block)

        builder.set_block(body)
        for s in stmt.body:
            self._lower_stmt(s)
        if not builder.block_terminated():
            stepped = builder.binary(
                Opcode.ADD, var, Const(step_value, IR_INT), IR_INT
            )
            builder.mov(var, stepped)
            builder.jmp(header)

        builder.set_block(exit_block)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        builder = self._builder
        header = builder.new_block("while.header")
        body = builder.new_block("while.body")
        exit_block = builder.new_block("while.exit")
        builder.jmp(header)

        builder.set_block(header)
        cond = self._lower_expr(stmt.condition)
        builder.br(cond, body, exit_block)

        builder.set_block(body)
        for s in stmt.body:
            self._lower_stmt(s)
        if not builder.block_terminated():
            builder.jmp(header)

        builder.set_block(exit_block)

    def _lower_return(self, stmt: ast.ReturnStmt) -> None:
        if stmt.value is None:
            self._builder.ret()
            return
        value = self._lower_expr(stmt.value)
        if self._ir.return_type is not None:
            value = self._coerce(value, self._ir.return_type)
        self._builder.ret(value)

    def _lower_receive(self, stmt: ast.ReceiveStmt) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            reg = self._vars.get(target.name)
            if reg is None:
                raise LoweringError(f"receive into non-scalar {target.name!r}")
            received = self._builder.recv(reg.type)
            self._builder.mov(reg, received)
        elif isinstance(target, ast.IndexExpr):
            array = self._array_of(target)
            index = self._lower_expr(target.index)
            received = self._builder.recv(array.element_type)
            self._builder.store(array, index, received)
        else:
            raise LoweringError("invalid receive target survived sema")

    # -- expressions ----------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Value:
        if isinstance(expr, ast.IntLiteral):
            return Const(expr.value, IR_INT)
        if isinstance(expr, ast.FloatLiteral):
            return Const(expr.value, IR_FLOAT)
        if isinstance(expr, ast.VarRef):
            reg = self._vars.get(expr.name)
            if reg is None:
                raise LoweringError(f"scalar use of array {expr.name!r}")
            return reg
        if isinstance(expr, ast.IndexExpr):
            array = self._array_of(expr)
            index = self._lower_expr(expr.index)
            return self._builder.load(array, index)
        if isinstance(expr, ast.UnaryExpr):
            return self._lower_unary(expr)
        if isinstance(expr, ast.BinaryExpr):
            return self._lower_binary(expr)
        if isinstance(expr, ast.CallExpr):
            result = self._lower_call(expr, want_result=True)
            if result is None:
                raise LoweringError(f"void call {expr.callee!r} used as a value")
            return result
        raise LoweringError(  # pragma: no cover - exhaustive over AST exprs
            f"unhandled expression {type(expr).__name__}"
        )

    def _lower_unary(self, expr: ast.UnaryExpr) -> Value:
        operand = self._lower_expr(expr.operand)
        if expr.op == "-":
            return self._builder.unary(Opcode.NEG, operand, operand.type)
        if expr.op == "not":
            return self._builder.unary(Opcode.NOT, operand, IR_INT)
        raise LoweringError(f"unknown unary operator {expr.op!r}")

    def _lower_binary(self, expr: ast.BinaryExpr) -> Value:
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        opcode = _BINARY_OPCODES.get(expr.op)
        if opcode is None:
            raise LoweringError(f"unknown binary operator {expr.op!r}")
        if expr.op in ("and", "or"):
            return self._builder.binary(opcode, left, right, IR_INT)
        if expr.op in _COMPARISON_SET:
            left, right = self._unify(left, right)
            return self._builder.binary(opcode, left, right, IR_INT)
        if expr.op == "%":
            return self._builder.binary(opcode, left, right, IR_INT)
        left, right = self._unify(left, right)
        return self._builder.binary(opcode, left, right, left.type)

    def _lower_builtin(self, expr: ast.CallExpr) -> Value:
        """Hardware intrinsics: abs/min/max on either ALU, sqrt on the
        square-root unit (always float)."""
        args = [self._lower_expr(arg) for arg in expr.args]
        if expr.callee == "sqrt":
            return self._builder.unary(
                Opcode.SQRT, self._coerce(args[0], IR_FLOAT), IR_FLOAT
            )
        if expr.callee == "abs":
            return self._builder.unary(Opcode.ABS, args[0], args[0].type)
        opcode = Opcode.MIN if expr.callee == "min" else Opcode.MAX
        left, right = self._unify(args[0], args[1])
        return self._builder.binary(opcode, left, right, left.type)

    def _lower_call(self, expr: ast.CallExpr, want_result: bool) -> Optional[VReg]:
        from ..lang.sema import BUILTIN_FUNCTIONS

        if expr.callee in BUILTIN_FUNCTIONS:
            result = self._lower_builtin(expr)
            if isinstance(result, VReg):
                return result
            raise LoweringError("builtin lowered to a non-register value")
        info = self._callees.get(expr.callee)
        if info is None:
            raise LoweringError(f"call to unknown function {expr.callee!r}")
        args = []
        for arg, param_type in zip(expr.args, info.param_types):
            value = self._lower_expr(arg)
            args.append(self._coerce(value, ir_type_of(param_type)))
        result_type = (
            None
            if info.return_type == VOID
            else ir_type_of(info.return_type)
        )
        if not want_result:
            result_type_for_call = result_type  # keep dest so value isn't lost
            return self._builder.call(expr.callee, tuple(args), result_type_for_call)
        return self._builder.call(expr.callee, tuple(args), result_type)

    # -- helpers -----------------------------------------------------------------

    def _array_of(self, expr: ast.IndexExpr) -> FrameArray:
        if not isinstance(expr.base, ast.VarRef):
            raise LoweringError("array base must be a variable")
        array = self._arrays.get(expr.base.name)
        if array is None:
            raise LoweringError(f"{expr.base.name!r} is not an array")
        return array

    def _coerce(self, value: Value, target_type: str) -> Value:
        """Insert int->float conversion when needed."""
        if value.type == target_type:
            return value
        if value.type == IR_INT and target_type == IR_FLOAT:
            if isinstance(value, Const):
                return Const(float(value.value), IR_FLOAT)
            return self._builder.itof(value)
        raise LoweringError(
            f"cannot coerce {value.type!r} to {target_type!r} (sema gap)"
        )

    def _unify(self, left: Value, right: Value):
        """Widen operands so both have the same IR type."""
        if left.type == right.type:
            return left, right
        if left.type == IR_INT:
            return self._coerce(left, IR_FLOAT), right
        return left, self._coerce(right, IR_FLOAT)


def _constant_int(expr: ast.Expr) -> Optional[int]:
    """Evaluate an expression that must be an integer constant, else None."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryExpr) and expr.op == "-":
        inner = _constant_int(expr.operand)
        return None if inner is None else -inner
    return None


def lower_function(section: ast.Section, function: ast.Function) -> FunctionIR:
    """Lower one checked function to IR: sema wrote each expression's
    type onto the tree, so no scope is read."""
    return FunctionLowerer(section, function).lower()


def lower_module(module: ast.Module) -> ModuleIR:
    """Lower every function of a checked module."""
    result = ModuleIR(name=module.name)
    for section in module.sections:
        result.section_cells[section.name] = (section.first_cell, section.last_cell)
        result.functions[section.name] = [
            lower_function(section, fn) for fn in section.functions
        ]
    return result
