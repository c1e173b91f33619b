"""Fig. 6 bench: regenerate LBICA's detection/characterization timeline.

Asserts the paper's policy-assignment sequences: TPC-C → WO; mail → RO,
then WO, then WB (with tail bypass); web → RO at the first burst.
"""

from repro.experiments.fig6 import generate_fig6


def test_fig6_policy_timeline(benchmark, paper_runner):
    fig = benchmark.pedantic(
        generate_fig6, args=(paper_runner,), rounds=1, iterations=1
    )
    print()
    print(fig.ascii_chart)
    print(fig.checks_table())
    assert fig.all_passed, fig.checks_table()

    timelines = fig.extra["timelines"]
    assert timelines["tpcc"][0][1] == "WO"
    mail_policies = [p for _, p, _, _ in timelines["mail"]]
    assert mail_policies[:3] == ["RO", "WO", "WB"]
    assert timelines["web"][0][1] == "RO"

    # the write-intensive (Group 3) phase must actually shed queue tail
    lbica = paper_runner.run("mail", "lbica")
    assert sum(d.bypassed for d in lbica.scheme_decisions) > 0
