"""Unit tests for the raw-word draw decoder (repro.sim.fastdraw).

Two layers: draw-for-draw checks of :class:`RawDraws` against a live
``numpy.random.Generator``, and end-to-end equivalence of the decoded
arrival path against the ``Generator`` path (same scenario, decoding
switched off, identical stats fingerprints).
"""

import numpy as np
import pytest

from repro.config import quick_config
from repro.scenario import get_scenario
from repro.scenario.fingerprint import stats_fingerprint
from repro.sim.engine import Simulator
from repro.sim.fastdraw import RawDraws, replication_verified
from repro.workloads import base as workload_base
from repro.workloads.spec import workload_from_spec


def _pair(seed: int, block: int = 64):
    """A reference Generator and a RawDraws over the same seed."""
    ref = np.random.Generator(np.random.PCG64(seed))
    bg = np.random.PCG64(seed)
    return ref, bg, RawDraws(bg, block=block)


class TestRawDraws:
    def test_random_matches_generator(self):
        ref, _bg, raw = _pair(1234)
        assert [raw.random() for _ in range(500)] == [
            ref.random() for _ in range(500)
        ]

    def test_integers_matches_generator_across_spans(self):
        # Small spans share 32-bit half-words; spans past 2**32 consume
        # whole words; span 1 consumes no entropy at all.
        ref, _bg, raw = _pair(99)
        for span in (1, 2, 3, 10, 255, 4096, 1 << 20, 1 << 32, (1 << 40) + 13):
            for _ in range(50):
                assert raw.integers(7, 7 + span) == int(ref.integers(7, 7 + span))

    def test_exponential_matches_generator(self):
        # Enough draws to hit the ziggurat's wedge/tail branches (~1%):
        # seed 7's first 5,000 take the tail twice and the wedge test 110
        # times (54 accepted, 56 rejected and redrawn).  A unit scale is
        # Generator.standard_exponential(); any other scale multiplies
        # every exit, those branches included.
        ref, _bg, raw = _pair(7)
        for _ in range(5_000):
            assert raw.exponential(1.0) == float(ref.standard_exponential())
        ref, _bg, raw = _pair(7)
        for _ in range(5_000):
            assert raw.exponential(17.5) == float(ref.exponential(17.5))

    def test_interleaved_mix_matches_generator(self):
        # The arrival loop's shape: a data-dependent interleave where one
        # draw decides which distribution samples next.
        ref, _bg, raw = _pair(20190325)
        for _ in range(2_000):
            u = raw.random()
            assert u == ref.random()
            if u < 0.5:
                assert raw.integers(0, 997) == int(ref.integers(0, 997))
            else:
                assert raw.exponential(3.0) == float(ref.exponential(3.0))

    def test_inherits_existing_halfword_carry(self):
        # A generator mid-stream (odd bounded draw already made) must be
        # picked up carry and all.
        ref = np.random.Generator(np.random.PCG64(8080))
        bg = np.random.PCG64(8080)
        pre = np.random.Generator(bg)
        assert int(pre.integers(0, 100)) == int(ref.integers(0, 100))
        raw = RawDraws(bg, block=16)
        for _ in range(10):
            assert raw.integers(0, 100) == int(ref.integers(0, 100))

    def test_non_pcg64_rejected(self):
        with pytest.raises(ValueError):
            RawDraws(np.random.MT19937(3))

    def test_sized_exponential_equals_scalar_calls(self):
        # The self-check takes its ziggurat-tail reference from one sized
        # call; that relies on it matching n scalar calls value for value
        # and leaving the bit generator in the same state.
        sized = np.random.Generator(np.random.PCG64(20190325))
        scalar = np.random.Generator(np.random.PCG64(20190325))
        values = sized.standard_exponential(size=4_000).tolist()
        assert values == [float(scalar.standard_exponential()) for _ in range(4_000)]
        assert sized.bit_generator.state == scalar.bit_generator.state

    def test_replication_verified_on_this_numpy(self):
        # The installed numpy must pass the cross-check — otherwise every
        # workload silently draws through the Generator and the
        # equivalence tests below are vacuous.
        assert replication_verified()


class TestDecodedEquivalence:
    """Decoding the draws must be invisible in every statistic."""

    #: Scenario -> run length in monitoring intervals (None: the script).
    HORIZONS = {
        # One VM: the open-loop arrival chain.
        "fig4_single_vm": None,
        # A tenant arrives and another departs mid-run.
        "churn_consolidated": 60,
        # Three VMs held at their concurrency bound: throttle and resume.
        "consolidated3_dynshare": 60,
    }

    def _run(self, scenario):
        """The run's stats fingerprint and its workloads' draw-source types."""
        config = quick_config(7)
        system = get_scenario(scenario).build(config, trace_records=False)
        horizon = self.HORIZONS[scenario]
        until = None if horizon is None else horizon * config.interval_us
        result = system.run(until_us=until)
        tenants = getattr(system.workload, "children", [system.workload])
        sources = {type(w._draws) for w in tenants}
        return stats_fingerprint(result), sources

    @pytest.mark.parametrize("scenario", sorted(HORIZONS))
    def test_decoded_matches_numpy_path(self, scenario, monkeypatch):
        decoded, decoded_sources = self._run(scenario)
        monkeypatch.setattr(workload_base, "replication_verified", lambda: False)
        reference, reference_sources = self._run(scenario)
        assert decoded_sources == {RawDraws}
        assert reference_sources == {np.random.Generator}
        assert decoded == reference

    def test_size_distribution_keeps_numpy_generator(self):
        # Generator.choice is not decoded, so a size distribution keeps
        # the Generator as the draw source: nothing is read ahead, and the
        # arrivals follow the scalar draw sequence exactly.
        spec = {
            "name": "mixed_sizes",
            "phases": [
                {
                    "n_intervals": 4,
                    "rate_iops": 5000,
                    "write_frac": 0.3,
                    "size_blocks": [[1, 0.75], [8, 0.25]],
                    "read_pattern": {"kind": "zipf", "start": 0, "span": 256},
                    "write_pattern": {"kind": "uniform", "start": 1024, "span": 64},
                }
            ],
        }
        wl = workload_from_spec(spec, interval_us=10_000.0)
        rng = np.random.default_rng(11)
        sim = Simulator()
        got = []

        def submit(req):
            got.append((req.arrival, req.lba, req.nblocks, req.is_write))
            wl.on_request_complete(req)

        wl.bind(sim, submit, rng)
        assert wl._draws is rng
        sim.run(until=wl.duration_us)

        ref = np.random.default_rng(11)
        phase = wl.phases[0]
        mean_gap = 1e6 / phase.rate_iops
        expected = []
        t = ref.exponential(mean_gap)
        while t < wl.duration_us:
            is_write = ref.random() < phase.write_frac
            pattern = phase.write_pattern if is_write else phase.pattern_read
            lba = pattern.sample(ref)
            nblocks = int(ref.choice([1, 8], p=[0.75, 0.25]))
            expected.append((t, lba, nblocks, is_write))
            t += ref.exponential(mean_gap)
        assert len(expected) > 100
        assert got == expected
        assert rng.bit_generator.state == ref.bit_generator.state
