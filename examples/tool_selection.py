"""Tool selection for different user classes (weight profiles).

The paper's central point: "the importance and relevance of each
criterion depends on ... the type of computing environment", so the
same measurements rank tools differently for an end user (response
time), an application developer (usability) and a tool developer
(primitive efficiency).  This example measures once and re-weights.

    python examples/tool_selection.py
"""

from repro.core import PRESET_PROFILES, EvaluationSpec, Scheduler


def main() -> None:
    spec = EvaluationSpec(
        platforms=("sun-ethernet",),
        processors=4,
        tpl_sizes=(1024, 16384, 65536),
        global_sum_ints=25_000,
        profiles=tuple(PRESET_PROFILES),
    )
    print("Measuring once on %s ..." % spec.platforms[0])

    # One measurement pass; every preset re-weights the same samples.
    result = Scheduler().run(spec)
    reports = {name: result.report(profile=name) for name in PRESET_PROFILES}

    print()
    header = "%-24s" % "profile"
    tools = sorted(spec.tools)
    for tool in tools:
        header += "%12s" % tool
    header += "   best"
    print(header)
    print("-" * len(header))
    for name, report in reports.items():
        overall = {e.tool: e.overall for e in report.evaluations}
        row = "%-24s" % name
        for tool in tools:
            row += "%12.3f" % overall[tool]
        row += "   %s" % report.best_tool()
        print(row)

    print()
    print(
        "Same measurements, different winners are possible: weight factors\n"
        "tailor the evaluation to the user class, exactly as Section 2\n"
        "of the paper prescribes."
    )


if __name__ == "__main__":
    main()
