"""A tour of the compiler's artifacts, stage by stage (Figure 1).

For SSSP, prints: the Green-Marl source, the Pregel-canonical form after the
§4.1 transformations, the state machine, the inferred message layout, the
generated GPS-style Java, and the executable Python vertex program.

Run:  python examples/codegen_tour.py
"""

from repro.algorithms.sources import load_source
from repro.compiler import compile_algorithm
from repro.pregelir.ir import MVPhase


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    banner("1. What the programmer writes (sssp.gm)")
    print(load_source("sssp"))

    compiled = compile_algorithm("sssp")

    banner("2. Pregel-canonical Green-Marl (after the §4.1 transformations)")
    print(compiled.canonical_source)

    banner("3. The state machine (§3.1, State Machine Construction)")
    print(compiled.ir.describe())
    print()
    print("Master instruction stream:")
    for idx, instr in enumerate(compiled.ir.master_code):
        marker = "  -> yields superstep" if isinstance(instr, MVPhase) else ""
        print(f"  {idx:3d}: {type(instr).__name__:10s} "
              f"{getattr(instr, 'name', getattr(instr, 'label', getattr(instr, 'phase', '')))}{marker}")

    banner("4. Inferred message layout (§3.1, payload dataflow analysis)")
    for tag, layout in compiled.ir.messages.items():
        fields = ", ".join(f"{n}: {t}" for n, t in layout.fields) or "(empty)"
        print(f"  tag {tag} [{layout.label}]  payload: {fields}  "
              f"({compiled.ir.message_size(tag)} bytes/message)")

    banner("5. Generated GPS Java (§4.3 boilerplate included)")
    print(compiled.java_source)

    banner("6. Executable Python module: vertex loops and master (what the simulator runs)")
    print(compiled.program.source)


if __name__ == "__main__":
    main()
