"""GPS-style Java source emission (§4.3, Message Class and I/O Methods).

The paper's compiler emits Java for GPS; ours executes on the simulator but
also emits the equivalent Java artifact, used for inspection and for the
generated-code side of Table 2's lines-of-code comparison.  The emitted
program has the exact shape the paper describes:

* a serializable ``Message`` class with per-tag payload fields and
  ``write``/``readFields`` methods (generated from the inferred layouts);
* a vertex class whose ``compute()`` reads the broadcast ``_state`` and
  switches to the per-state method (``do_state_k``);
* a master class holding the global scalars, running the state machine and
  broadcasting the state number and globals each superstep.

The Java is an artifact (we have no JVM/GPS here); it is syntactically
plausible and structurally faithful rather than compiled.
"""

from __future__ import annotations

import io
import math

from ..lang.ast import BinOp, UnOp
from ..lang import types as ty
from ..pregel.globalmap import GlobalOp
from ..pregelir.ir import (
    Bin,
    Call,
    CastTo,
    Cond,
    Field,
    GlobalGet,
    Inf,
    Lit,
    Local,
    MAssign,
    MBranch,
    MFinalize,
    MHalt,
    MJump,
    MLabel,
    MsgField,
    MVPhase,
    MyId,
    Nil,
    PregelIR,
    Un,
    VAppendInNbr,
    VAssignLocal,
    VertexPhase,
    VFieldAssign,
    VFieldReduce,
    VGlobalPut,
    VIf,
    VLocal,
    VMsgLoop,
    VSendNbrs,
    VSendTo,
    VStmt,
)

_JAVA_TYPES = {
    ty.Prim.INT: "int",
    ty.Prim.LONG: "long",
    ty.Prim.FLOAT: "float",
    ty.Prim.DOUBLE: "double",
    ty.Prim.BOOL: "boolean",
}

_BIN_JAVA = {
    BinOp.ADD: "+",
    BinOp.SUB: "-",
    BinOp.MUL: "*",
    BinOp.DIV: "/",
    BinOp.MOD: "%",
    BinOp.EQ: "==",
    BinOp.NEQ: "!=",
    BinOp.LT: "<",
    BinOp.GT: ">",
    BinOp.LE: "<=",
    BinOp.GE: ">=",
    BinOp.AND: "&&",
    BinOp.OR: "||",
}

_GLOBAL_CLASSES = {
    GlobalOp.SUM: "SumGlobal",
    GlobalOp.PRODUCT: "ProductGlobal",
    GlobalOp.MIN: "MinGlobal",
    GlobalOp.MAX: "MaxGlobal",
    GlobalOp.AND: "AndGlobal",
    GlobalOp.OR: "OrGlobal",
    GlobalOp.OVERWRITE: "OverwriteGlobal",
}


def java_type(t: ty.Type) -> str:
    if isinstance(t, ty.PrimType):
        return _JAVA_TYPES[t.prim]
    if t.is_node() or t.is_edge():
        return "int"
    raise ValueError(f"no Java type for {t}")


def _io_method(t: ty.Type) -> str:
    if isinstance(t, ty.PrimType):
        return {
            ty.Prim.INT: "Int",
            ty.Prim.LONG: "Long",
            ty.Prim.FLOAT: "Float",
            ty.Prim.DOUBLE: "Double",
            ty.Prim.BOOL: "Boolean",
        }[t.prim]
    return "Int"


class _W:
    def __init__(self):
        self._buf = io.StringIO()
        self.depth = 0

    def line(self, text: str = "") -> None:
        self._buf.write("    " * self.depth + text + "\n")

    def open(self, text: str) -> None:
        self.line(text + " {")
        self.depth += 1

    def close(self, suffix: str = "") -> None:
        self.depth -= 1
        self.line("}" + suffix)

    def text(self) -> str:
        return self._buf.getvalue()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def jexpr(e, *, ctx: str, msgp: str = "m.f") -> str:
    """Render an IR expression; ``ctx`` is 'vertex' or 'master'; ``msgp`` is
    the Java prefix for message payload fields (tag-qualified when tagged)."""
    if isinstance(e, Lit):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        if isinstance(e.value, float) and math.isinf(e.value):
            return "-INF" if e.value < 0 else "INF"
        return repr(e.value)
    if isinstance(e, Inf):
        return "-INF" if e.negative else "INF"
    if isinstance(e, Nil):
        return "NIL"
    if isinstance(e, Local):
        return e.name
    if isinstance(e, Field):
        return f"getValue().{e.name}" if ctx == "vertex" else e.name
    if isinstance(e, GlobalGet):
        return f'getGlobal("{e.name}")'
    if isinstance(e, MsgField):
        return f"{msgp}{e.index}"
    if isinstance(e, MyId):
        return "getId()"
    if isinstance(e, Bin):
        return f"({jexpr(e.lhs, ctx=ctx, msgp=msgp)} {_BIN_JAVA[e.op]} {jexpr(e.rhs, ctx=ctx, msgp=msgp)})"
    if isinstance(e, Un):
        if e.op is UnOp.NEG:
            return f"(-{jexpr(e.operand, ctx=ctx, msgp=msgp)})"
        if e.op is UnOp.NOT:
            return f"(!{jexpr(e.operand, ctx=ctx, msgp=msgp)})"
        return f"Math.abs({jexpr(e.operand, ctx=ctx, msgp=msgp)})"
    if isinstance(e, Cond):
        return (
            f"({jexpr(e.cond, ctx=ctx, msgp=msgp)} ? {jexpr(e.then, ctx=ctx, msgp=msgp)}"
            f" : {jexpr(e.other, ctx=ctx, msgp=msgp)})"
        )
    if isinstance(e, CastTo):
        return f"(({java_type(e.to_type)}) {jexpr(e.operand, ctx=ctx, msgp=msgp)})"
    if isinstance(e, Call):
        if e.name == "out_degree":
            return "getOutEdges().size()"
        if e.name == "in_degree":
            return "getValue()._in_nbrs.length"
        if e.name == "num_nodes":
            return "getTotalNumVertices()"
        if e.name == "num_edges":
            return "getTotalNumEdges()"
        if e.name == "edge_prop":
            return f"edge.{e.args[0]}"
        if e.name == "pick_random":
            return "random.nextInt(getTotalNumVertices())"
        raise ValueError(f"unknown builtin '{e.name}'")
    raise ValueError(f"cannot render {type(e).__name__}")


# ---------------------------------------------------------------------------
# Vertex statements
# ---------------------------------------------------------------------------


def _jstmt(w: _W, stmt: VStmt, ir: PregelIR, msgp: str = "m.f") -> None:
    ctx = "vertex"
    if isinstance(stmt, VLocal):
        w.line(f"double {stmt.name} = {jexpr(stmt.expr, ctx=ctx, msgp=msgp)};")
    elif isinstance(stmt, VAssignLocal):
        w.line(f"{stmt.name} = {jexpr(stmt.expr, ctx=ctx, msgp=msgp)};")
    elif isinstance(stmt, VFieldAssign):
        w.line(f"getValue().{stmt.name} = {jexpr(stmt.expr, ctx=ctx, msgp=msgp)};")
    elif isinstance(stmt, VFieldReduce):
        field = f"getValue().{stmt.name}"
        value = jexpr(stmt.expr, ctx=ctx, msgp=msgp)
        if stmt.op is GlobalOp.SUM:
            w.line(f"{field} += {value};")
        elif stmt.op is GlobalOp.PRODUCT:
            w.line(f"{field} *= {value};")
        elif stmt.op is GlobalOp.MIN:
            w.line(f"{field} = Math.min({field}, {value});")
        elif stmt.op is GlobalOp.MAX:
            w.line(f"{field} = Math.max({field}, {value});")
        elif stmt.op is GlobalOp.AND:
            w.line(f"{field} = {field} && {value};")
        elif stmt.op is GlobalOp.OR:
            w.line(f"{field} = {field} || {value};")
        else:
            w.line(f"{field} = {value};")
    elif isinstance(stmt, VIf):
        w.open(f"if ({jexpr(stmt.cond, ctx=ctx, msgp=msgp)})")
        for s in stmt.then:
            _jstmt(w, s, ir, msgp)
        if stmt.other:
            w.close(" else {")
            w.depth += 1
            for s in stmt.other:
                _jstmt(w, s, ir, msgp)
            w.close()
        else:
            w.close()
    elif isinstance(stmt, VGlobalPut):
        cls = _GLOBAL_CLASSES[stmt.op]
        w.line(
            f'putGlobal("{stmt.name}", new {cls}({jexpr(stmt.expr, ctx=ctx, msgp=msgp)}));'
        )
    elif isinstance(stmt, VSendNbrs):
        _jsend_nbrs(w, stmt, ir)
    elif isinstance(stmt, VSendTo):
        args = ", ".join(jexpr(p, ctx=ctx, msgp=msgp) for p in stmt.payload)
        w.line(
            f"sendMessage({jexpr(stmt.target, ctx=ctx, msgp=msgp)}, "
            f"Message.tag{stmt.tag}({args}));"
        )
    elif isinstance(stmt, VAppendInNbr):
        w.line(f"inNbrsBuilder.add({jexpr(stmt.source, ctx=ctx, msgp=msgp)});")
    elif isinstance(stmt, VMsgLoop):
        body_msgp = f"m.t{stmt.tag}_f" if ir.tagged else "m.f"
        w.open("for (Message m : messages)")
        if ir.tagged:
            w.open(f"if (m.tag == {stmt.tag})")
        for s in stmt.body:
            _jstmt(w, s, ir, body_msgp)
        if ir.tagged:
            w.close()
        w.close()
    else:
        raise ValueError(f"cannot render {type(stmt).__name__}")


def _jsend_nbrs(w: _W, stmt: VSendNbrs, ir: PregelIR) -> None:
    args = ", ".join(jexpr(p, ctx="vertex") for p in stmt.payload)
    per_edge = any("edge." in jexpr(p, ctx="vertex") for p in stmt.payload)
    if stmt.direction == "in":
        w.open("for (int dst : getValue()._in_nbrs)")
        w.line(f"sendMessage(dst, Message.tag{stmt.tag}({args}));")
        w.close()
    elif per_edge:
        w.open("for (Edge edge : getOutEdges())")
        w.line(f"sendMessage(edge.getTargetId(), Message.tag{stmt.tag}({args}));")
        w.close()
    else:
        w.line(f"sendToNbrs(Message.tag{stmt.tag}({args}));")


# ---------------------------------------------------------------------------
# Whole program
# ---------------------------------------------------------------------------


def generate_java(ir: PregelIR) -> str:
    w = _W()
    cls = _camel(ir.name)
    w.line(f"// Generated by the Green-Marl Pregel backend from '{ir.name}.gm'.")
    w.line("// Target framework: GPS (master.compute() extension of Pregel).")
    w.line("import java.io.DataInput;")
    w.line("import java.io.DataOutput;")
    w.line("import java.io.IOException;")
    w.line("import java.util.Random;")
    w.line()
    w.open(f"public class {cls}")
    w.line(f"static final double INF = Double.POSITIVE_INFINITY;")
    w.line(f"static final int NIL = -1;")
    w.line()
    _emit_message_class(w, ir)
    w.line()
    _emit_vertex_value(w, ir)
    w.line()
    _emit_vertex_class(w, ir, cls)
    w.line()
    _emit_master_class(w, ir, cls)
    w.close()
    return w.text()


def _camel(name: str) -> str:
    return "".join(part.capitalize() for part in name.split("_")) or "Program"


def _emit_message_class(w: _W, ir: PregelIR) -> None:
    w.open("public static class Message implements Writable")
    if ir.tagged:
        w.line("byte tag;")

    def jfield(layout, fname: str) -> str:
        return f"t{layout.tag}_{fname}" if ir.tagged else fname

    for layout in ir.messages.values():
        for fname, ftype in layout.fields:
            w.line(f"{java_type(ftype)} {jfield(layout, fname)};  // {layout.label}")
    for layout in ir.messages.values():
        params = ", ".join(f"{java_type(t)} {n}" for n, t in layout.fields)
        w.open(f"static Message tag{layout.tag}({params})")
        w.line("Message m = new Message();")
        if ir.tagged:
            w.line(f"m.tag = {layout.tag};")
        for fname, _ in layout.fields:
            w.line(f"m.{jfield(layout, fname)} = {fname};")
        w.line("return m;")
        w.close()
    # Serialization boilerplate (§4.3): the payload layout decides what is
    # written for each tag.
    w.open("public void write(DataOutput out) throws IOException")
    if ir.tagged:
        w.line("out.writeByte(tag);")
        w.open("switch (tag)")
        for layout in ir.messages.values():
            w.line(f"case {layout.tag}:")
            w.depth += 1
            for fname, ftype in layout.fields:
                w.line(f"out.write{_io_method(ftype)}({jfield(layout, fname)});")
            w.line("break;")
            w.depth -= 1
        w.close()
    else:
        for layout in ir.messages.values():
            for fname, ftype in layout.fields:
                w.line(f"out.write{_io_method(ftype)}({jfield(layout, fname)});")
    w.close()
    w.open("public void readFields(DataInput in) throws IOException")
    if ir.tagged:
        w.line("tag = in.readByte();")
        w.open("switch (tag)")
        for layout in ir.messages.values():
            w.line(f"case {layout.tag}:")
            w.depth += 1
            for fname, ftype in layout.fields:
                w.line(f"{jfield(layout, fname)} = in.read{_io_method(ftype)}();")
            w.line("break;")
            w.depth -= 1
        w.close()
    else:
        for layout in ir.messages.values():
            for fname, ftype in layout.fields:
                w.line(f"{jfield(layout, fname)} = in.read{_io_method(ftype)}();")
    w.close()
    w.close()


def _emit_vertex_value(w: _W, ir: PregelIR) -> None:
    w.open("public static class VertexValue implements Writable")
    for name, elem in ir.vertex_fields.items():
        w.line(f"{java_type(elem)} {name};")
    if ir.needs_in_nbrs:
        w.line("int[] _in_nbrs;")
    w.open("public void write(DataOutput out) throws IOException")
    for name, elem in ir.vertex_fields.items():
        w.line(f"out.write{_io_method(elem)}({name});")
    w.close()
    w.open("public void readFields(DataInput in) throws IOException")
    for name, elem in ir.vertex_fields.items():
        w.line(f"{name} = in.read{_io_method(elem)}();")
    w.close()
    w.close()


def _emit_vertex_class(w: _W, ir: PregelIR, cls: str) -> None:
    w.open(
        f"public static class {cls}Vertex extends Vertex<VertexValue, Message>"
    )
    w.open("public void compute(Iterable<Message> messages, int superstepNo)")
    w.line('int _state = getGlobal("_state");')
    w.open("switch (_state)")
    for phase in sorted(ir.phases.values(), key=lambda p: p.phase_id):
        w.line(f"case {phase.phase_id}: do_state_{phase.phase_id}(messages); break;")
    w.close()
    w.close()
    for phase in sorted(ir.phases.values(), key=lambda p: p.phase_id):
        w.line()
        w.open(
            f"private void do_state_{phase.phase_id}(Iterable<Message> messages)"
            f"  // {phase.label}"
        )
        if ir.needs_in_nbrs and any(
            isinstance(s, VMsgLoop) and any(isinstance(b, VAppendInNbr) for b in s.body)
            for s in phase.receive
        ):
            w.line("IntArrayBuilder inNbrsBuilder = new IntArrayBuilder();")
        for stmt in phase.receive:
            _jstmt(w, stmt, ir)
        if ir.needs_in_nbrs and any(
            isinstance(s, VMsgLoop) and any(isinstance(b, VAppendInNbr) for b in s.body)
            for s in phase.receive
        ):
            w.line("getValue()._in_nbrs = inNbrsBuilder.toArray();")
        if phase.filter is not None:
            w.line(f"if (!({jexpr(phase.filter, ctx='vertex')})) return;")
        for stmt in phase.compute:
            _jstmt(w, stmt, ir)
        w.close()
    w.close()


def _emit_master_class(w: _W, ir: PregelIR, cls: str) -> None:
    w.open(f"public static class {cls}Master extends Master")
    for name, t in ir.master_fields.items():
        w.line(f"{java_type(t)} {name};")
    w.line("int _pc = 0;")
    w.line("Random random = new Random();")
    w.line()
    w.open("public void compute(int superstepNo)")
    w.open("while (true)")
    w.open("switch (_pc)")
    labels = {
        instr.label: idx
        for idx, instr in enumerate(ir.master_code)
        if isinstance(instr, MLabel)
    }
    for idx, instr in enumerate(ir.master_code):
        w.line(f"case {idx}:")
        w.depth += 1
        if isinstance(instr, MAssign):
            w.line(f"{instr.name} = {jexpr(instr.expr, ctx='master')};")
            w.line(f"_pc = {idx + 1}; break;")
        elif isinstance(instr, MFinalize):
            w.line(f'if (hasGlobal("{instr.name}"))')
            w.line(
                f'    {instr.name} = combine_{instr.op.name.lower()}'
                f'({instr.name}, getGlobal("{instr.name}"));'
            )
            w.line(f"_pc = {idx + 1}; break;")
        elif isinstance(instr, MLabel):
            w.line(f"_pc = {idx + 1}; break;  // {instr.label}:")
        elif isinstance(instr, MJump):
            w.line(f"_pc = {labels[instr.label]}; break;  // goto {instr.label}")
        elif isinstance(instr, MBranch):
            w.line(
                f"_pc = {jexpr(instr.cond, ctx='master')} ? "
                f"{labels[instr.on_true]} : {labels[instr.on_false]}; break;"
            )
        elif isinstance(instr, MVPhase):
            w.line(f'putGlobal("_state", {instr.phase});')
            w.line("broadcastGlobals();  // scalar master fields")
            w.line(f"_pc = {idx + 1};")
            w.line("return;  // yield: run vertex phase this superstep")
        elif isinstance(instr, MHalt):
            if instr.result is not None:
                w.line(f"setResult({jexpr(instr.result, ctx='master')});")
            w.line("haltComputation();")
            w.line("return;")
        w.depth -= 1
    w.close()
    w.close()
    w.close()
    w.close()
