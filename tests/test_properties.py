"""Property-based tests (hypothesis) on core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.address_map import AddressMap, smooth_weighted_order
from repro.net.routing import RouteClass, RouteTable, bfs_paths
from repro.runner import ParallelRunner, SimJob
from repro.runner.cache import ResultCache
from repro.serialization import result_digest
from repro.sim.engine import Engine
from repro.sim.random import derive_seed
from repro.sim.stats import Histogram
from repro.topology import (
    build_chain,
    build_metacube,
    build_ring,
    build_skiplist,
    build_tree,
)
from repro.topology.base import HOST_ID
from repro.topology.skiplist import plan_skip_links
from repro.units import GIB_BYTES

from conftest import fast_workload, small_config

BUILDERS = {
    "chain": build_chain,
    "ring": build_ring,
    "tree": build_tree,
    "skiplist": build_skiplist,
}


# --- engine ----------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=60))
def test_engine_processes_events_in_time_order(delays):
    engine = Engine()
    fired = []
    for delay in delays:
        engine.schedule(delay, lambda eng: fired.append(eng.now))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


# --- seeds -------------------------------------------------------------------
@given(st.integers(), st.text(max_size=20), st.text(max_size=20))
def test_seed_derivation_deterministic_and_labelled(root, a, b):
    assert derive_seed(root, a) == derive_seed(root, a)
    if a != b:
        assert derive_seed(root, a) != derive_seed(root, b)


# --- smooth weighted round robin ------------------------------------------
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_wrr_pattern_counts_match_weights(weights):
    pattern = smooth_weighted_order(weights)
    assert len(pattern) == sum(weights)
    for index, weight in enumerate(weights):
        assert pattern.count(index) == weight


# --- address map ------------------------------------------------------------
@st.composite
def capacity_lists(draw):
    n_dram = draw(st.integers(min_value=0, max_value=6))
    n_nvm = draw(st.integers(min_value=0 if n_dram else 1, max_value=3))
    return [16 * GIB_BYTES] * n_dram + [64 * GIB_BYTES] * n_nvm


@given(capacity_lists(), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_address_map_decode_in_bounds(capacities, block):
    amap = AddressMap(capacities, 256, 2048, 256, 4)
    address = (block * 4421 * 256) % amap.total_bytes
    loc = amap.decode(address)
    assert 0 <= loc.cube_index < len(capacities)
    assert 0 <= loc.quadrant < 4
    assert 0 <= loc.bank < 64
    assert loc.row >= 0
    assert 0 <= loc.offset < 256


@given(capacity_lists())
@settings(max_examples=30)
def test_address_map_share_proportional_to_capacity(capacities):
    amap = AddressMap(capacities, 256, 2048, 256, 4)
    total = sum(capacities)
    for index, capacity in enumerate(capacities):
        assert abs(amap.cube_share(index) - capacity / total) < 1e-9


@given(capacity_lists())
@settings(max_examples=20)
def test_address_map_no_two_blocks_share_storage(capacities):
    """Distinct interleave blocks map to distinct (cube, quadrant, bank,
    row, column-slot) storage — decode is injective over blocks."""
    amap = AddressMap(capacities, 256, 2048, 16, 4)
    seen = {}
    for block in range(min(amap.pattern_len * 4, 256)):
        loc = amap.decode(block * 256)
        # reconstruct the cube-local block id from the decode
        blocks_per_row = 2048 // 256
        key = (loc.cube_index, loc.quadrant, loc.bank, loc.row, block)
        # two different blocks must never produce identical full keys
        storage = (loc.cube_index, loc.quadrant, loc.bank, loc.row)
        seen.setdefault(storage, set())
        assert block not in seen[storage]
        seen[storage].add(block)
        assert len(seen[storage]) <= blocks_per_row


# --- topologies ---------------------------------------------------------------
@given(
    st.sampled_from(sorted(BUILDERS)),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80)
def test_every_topology_validates_and_routes(kind, count):
    topo = BUILDERS[kind](["DRAM"] * count)
    topo.validate()
    table = RouteTable(topo.adjacency_by_class(), HOST_ID, topo.cube_ids())
    for cube in topo.cube_ids():
        for cls in (RouteClass.READ, RouteClass.WRITE):
            route = table.route_to_cube(cube, cls)
            assert route[0] == HOST_ID and route[-1] == cube
            assert len(set(route)) == len(route)  # no loops
            back = table.route_to_host(cube, cls)
            assert back == tuple(reversed(route))


@given(
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=60)
def test_metacube_validates_for_any_mix(n_dram, n_nvm):
    if n_dram + n_nvm == 0:
        return
    topo = build_metacube(n_dram, n_nvm)
    topo.validate()
    techs = [topo.tech_of(c) for c in topo.cube_ids()]
    assert techs.count("DRAM") == n_dram
    assert techs.count("NVM") == n_nvm


@given(st.integers(min_value=1, max_value=128))
@settings(max_examples=60)
def test_skiplist_port_budget_invariant(count):
    skips = plan_skip_links(count)
    ports = {i: 0 for i in range(count)}
    for position in range(count):
        ports[position] += 1  # uplink (host or previous cube)
        if position < count - 1:
            ports[position] += 1
    for a, b in skips:
        assert a < b
        ports[a] += 1
        ports[b] += 1
    assert all(p <= 4 for p in ports.values())


@given(st.integers(min_value=2, max_value=64))
@settings(max_examples=40)
def test_skiplist_reads_never_slower_than_chain(count):
    topo = build_skiplist(["DRAM"] * count)
    paths = bfs_paths(topo.adjacency(RouteClass.READ), HOST_ID)
    for position, cube in enumerate(topo.cube_ids()):
        chain_distance = position + 1
        assert len(paths[cube]) - 1 <= chain_distance


# --- histograms --------------------------------------------------------------
_HIST_WIDTH = 50.0
_HIST_BUCKETS = 16

#: Integer samples, like the simulator's picosecond and hop-count ones.
_samples = st.lists(
    st.integers(min_value=-500, max_value=5_000),
    max_size=50,
)


def _hist(samples):
    hist = Histogram(_HIST_WIDTH, _HIST_BUCKETS)
    for sample in samples:
        hist.add(sample)
    return hist


@given(a=_samples, b=_samples)
@settings(max_examples=60)
def test_histogram_merge_commutes(a, b):
    ab = _hist(a)
    ab.merge(_hist(b))
    ba = _hist(b)
    ba.merge(_hist(a))
    # Integer adds and extreme comparisons: merges are exact.
    assert ab.state() == ba.state()


@given(a=_samples, b=_samples, c=_samples)
@settings(max_examples=60)
def test_histogram_merge_associates(a, b, c):
    left = _hist(a)
    bc = _hist(b)
    bc.merge(_hist(c))
    left.merge(bc)
    right = _hist(a)
    right.merge(_hist(b))
    right.merge(_hist(c))
    assert left.state() == right.state()
    # and both equal the histogram of the concatenated stream, exactly
    assert left.state() == _hist(a + b + c).state()


@given(
    samples=_samples.filter(bool),
    lo=st.floats(min_value=0.01, max_value=1.0),
    hi=st.floats(min_value=0.01, max_value=1.0),
)
@settings(max_examples=80)
def test_histogram_percentiles_monotonic(samples, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    hist = _hist(samples)
    assert hist.percentile(lo) <= hist.percentile(hi)


@given(samples=_samples)
@settings(max_examples=60)
def test_histogram_binning_partitions_samples(samples):
    hist = _hist(samples)
    negatives = sum(1 for s in samples if s < 0)
    beyond = sum(1 for s in samples if s >= _HIST_WIDTH * _HIST_BUCKETS)
    assert hist.underflow == negatives
    assert hist.overflow == beyond
    assert sum(hist.buckets) + hist.underflow + hist.overflow == len(samples)
    in_first = sum(1 for s in samples if 0 <= s < _HIST_WIDTH)
    assert hist.buckets[0] == in_first


# --- RAS seed determinism ----------------------------------------------------
@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=2**31 - 1),
        min_size=1,
        max_size=3,
        unique=True,
    )
)
@settings(max_examples=5, deadline=None)
def test_fault_plan_draws_identical_serial_and_parallel(seeds):
    """The fault RNG is seed-derived per job, so worker-process layout
    (and completion order) must never change a noisy run's bits."""
    jobs = [
        SimJob(
            config=small_config(
                topology="ring", seed=seed
            ).with_ras(bit_error_rate=1e-6),
            workload=fast_workload(),
            requests=60,
        )
        for seed in seeds
    ]
    serial = ParallelRunner(jobs=1, cache=ResultCache()).run(jobs)
    parallel = ParallelRunner(jobs=2, cache=ResultCache()).run(jobs)
    for left, right in zip(serial, parallel):
        assert result_digest(left) == result_digest(right)
