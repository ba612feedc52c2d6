"""Exploring translations: canonical vs. improved plans and NVM code.

Prints the logical algebra plans for the paper's running examples —
the canonical d-join chain (Fig. 2), the stacked translation (Fig. 3)
and the full positional-predicate plan (Fig. 4) — plus the NVM assembly
of a compiled subscript.

Run:  python examples/plan_explorer.py
"""

from repro import TranslationOptions, compile_xpath
from repro.algebra.operators import plan_operators, Select
from repro.nvm.assembler import disassemble
from repro.nvm.machine import NVMSubscript


def show(title: str, query: str, options=None) -> None:
    print("=" * 72)
    print(f"{title}\n  {query}\n")
    compiled = compile_xpath(query, options=options)
    print(compiled.explain())
    print()


def main() -> None:
    # Paper Fig. 2: the canonical translation — a chain of d-joins, each
    # dependent side an unnest-map over the singleton scan, one final
    # duplicate elimination.
    show(
        "Canonical translation (paper Fig. 2)",
        "/child::t1/descendant::t2/child::t3",
        TranslationOptions.canonical(),
    )

    # Paper Fig. 3: the stacked translation — one pipeline, duplicate
    # elimination pushed behind the ppd step.
    show(
        "Improved stacked translation (paper Fig. 3)",
        "/child::t1/descendant::t2/child::t3",
    )

    # Paper Fig. 4: nested path predicate + position()=last().
    show(
        "Positional + nested predicates (paper Fig. 4)",
        "/child::t1/child::t2[child::t4/child::t5]"
        "[position() = last()]/child::t3",
    )

    # NVM: the assembler-like subscript programs of section 5.2.2.
    compiled = compile_xpath("//pub[year = '1991' and position() < 10]")
    selects = [
        op for op in plan_operators(compiled.logical_plan)
        if isinstance(op, Select)
    ]
    print("=" * 72)
    print("NVM programs for //pub[year = '1991' and position() < 10]\n")
    for index, select in enumerate(selects):
        print(f"Selection subscript {index}: {select.predicate.unparse()}")
    # Compile one subscript's program for display.
    from repro.compiler.physical import CodeGenerator
    from repro.engine.iterator import RuntimeState
    from repro.engine.tuples import AttributeManager

    manager = AttributeManager()
    runtime = RuntimeState(regs=[], context=None)
    generator = CodeGenerator(runtime, manager)
    for select in selects:
        subscript = generator._subscript(select.predicate)
        if isinstance(subscript, NVMSubscript):
            print()
            print(disassemble(subscript.program))
            print()


if __name__ == "__main__":
    main()
