"""Benchmarks regenerating every figure of the paper's evaluation.

Run with ``pytest benchmarks/ --benchmark-only -s`` to see the tables.
Each benchmark also asserts the figure's qualitative shape so a model
regression that flips a paper conclusion fails loudly.
"""

from conftest import run_experiment


def test_fig04_topology_speedups(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig04", bench_requests)
    averages = output.data["averages"]
    # Tree > Ring > 0 (chain): the paper's headline topology result.
    assert averages["100%-T"] > averages["100%-R"] > 0.0


def test_fig05_latency_breakdown(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig05", bench_requests)
    breakdown = output.data["breakdown"]
    # Network latency (to+from) exceeds in-memory latency under load
    # for the chain on the heavy workloads.
    chain = breakdown["KMEANS"]["100%-C"]
    network = chain["to_memory"] + chain["from_memory"]
    assert network > chain["in_memory"]
    # NW (lowest load) has the largest in-memory share of the suite.
    def in_share(wl):
        row = breakdown[wl]["100%-C"]
        total = row["to_memory"] + row["in_memory"] + row["from_memory"]
        return row["in_memory"] / total

    assert in_share("NW") >= max(in_share(w) for w in breakdown) - 1e-9


def test_fig07_nvm_ratios(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig07", bench_requests)
    averages = output.data["averages"]
    # every tree mix beats the chain baseline on average ...
    assert all(value > 0 for value in averages.values())
    # ... and the 50% mixes stay competitive with all-DRAM (within a
    # handful of points — "it is beneficial to use some amount of NVM").
    assert averages["50%-T (NVM-L)"] > averages["100%-T"] - 8.0


def test_fig10_distance_arbitration(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig10", bench_requests)
    averages = output.data["averages"]
    # distance arbitration must not wreck any baseline configuration
    assert all(value > -10.0 for value in averages.values())


def test_fig11_proposed_topologies(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig11", bench_requests)
    averages = output.data["averages"]
    # MetaCube is the best 100% topology; skip-list is close to tree.
    assert averages["100%-MC"] >= averages["100%-T"] - 1.0
    assert abs(averages["100%-SL"] - averages["100%-T"]) < 10.0


def test_fig12_combined_techniques(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig12", bench_requests)
    averages = output.data["averages"]
    assert all(value > 0 for value in averages.values())


def test_fig13_port_sensitivity(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig13", bench_requests)
    averages = output.data["averages"]
    # halving the ports degrades the chain
    assert averages["100%-C"] < 0.0
    # the MetaCube is affected least among 100% topologies
    assert averages["100%-MC"] >= averages["100%-C"]


def test_fig14_capacity_sensitivity(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig14", bench_requests)
    averages = output.data["averages"]
    # the all-NVM chain suffers the most from losing banks
    worst = min(averages, key=averages.get)
    assert "0%" in worst or "50%" in worst


def test_fig15_energy(benchmark, bench_requests):
    output = run_experiment(benchmark, "fig15", bench_requests)
    data = output.data["relative_energy"]
    # network energy shrinks as networks shrink
    assert data["0%-C"]["network"] < data["100%-C"]["network"]
    # NVM write energy pushes the all-NVM chain's total above baseline
    assert data["0%-C"]["write"] > data["100%-C"]["write"]
    # the tree is the cheapest all-DRAM network
    assert data["100%-T"]["network"] <= data["100%-C"]["network"]
    # the skip-list pays extra network energy for its write paths
    assert data["100%-SL"]["network"] >= data["100%-T"]["network"] - 1.0


def test_table01_ddr(benchmark):
    output = run_experiment(benchmark, "table01", 0)
    assert "800 MHz" in output.text
