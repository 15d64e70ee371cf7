"""Stream contract: the batched seeding and road drawing reproduce, bit for
bit, the one-stream definitions in conftest (numpy's own seeding of
stream (seed, i), then one realization's draw).

The batched path ports numpy's SeedSequence hash and PCG64 seeding, so
these tests also guard against a numpy release that seeds differently.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (fixed_road, per_user_demand, per_user_drop, reference_gamma_samples,
                      reference_roads, road_stream)

from prbdim import (DomainError, GeometryParams, RoadSet, Scenario, Service,
                    expected_load, sample_road_set)
from prbdim import geometry, simulate
from prbdim.congestion import chord_segments, conditional_congestion, outdoor_rings, road_set
from prbdim.geometry import chord_user_km, stream_states, streams
from prbdim.scenario_io import bundled_scenario
from prbdim.simulate import BLOCK, MC_TAG, gamma_samples

SEEDS = (0, 1, 2**32 - 1, 2**32 + 7, 2**70 + 3)
INDICES = (0, 1, 31, 1999)
R = 0.7


def gp(lam):
    return GeometryParams(road_intensity=lam, user_intensity_linear=2.0,
                          user_intensity_area=1.0)


class TestStreamStates:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", [(), (MC_TAG,)], ids=["road", "mc"])
    def test_equal_seed_sequence_state(self, seed, tag):
        prefix = (seed, *tag)
        states = stream_states(prefix, 2000)
        assert states.shape == (2000, 4) and states.dtype == np.uint64
        for i in INDICES:
            want = np.random.SeedSequence(prefix + (i,)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(states[i], want)

    @pytest.mark.parametrize("prefix", [(5,), (2**70 + 3,), (7, MC_TAG)])
    def test_streams_equal_default_rng(self, prefix):
        count = 0
        for i, rng in enumerate(streams(prefix, 40)):
            ref = np.random.default_rng(np.random.SeedSequence(prefix + (i,)))
            assert rng.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(rng.random(3), ref.random(3))
            count += 1
        assert count == 40

    def test_negative_entropy_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            stream_states((-1,), 3)
        with pytest.raises(ValueError, match="non-negative"):
            next(streams((4, -1), 3))

    # one constant of the SeedSequence hash, one of PCG64's seeding step
    @pytest.mark.parametrize("constant", ["_MULT_B", "_PCG_MULT"])
    def test_seeding_mismatch_raises_instead_of_drawing(self, monkeypatch, constant):
        monkeypatch.setattr(geometry, constant, getattr(geometry, constant) ^ 2)
        with pytest.raises(RuntimeError, match="SeedSequence"):
            next(streams((3,), 5))


class TestRoadSet:
    @pytest.mark.parametrize("sampler", ["paper", "standard"])
    @pytest.mark.parametrize("seed", [0, 20250811, 2**70 + 3])
    @pytest.mark.parametrize("lam", [0.0, 2.0, 9.0])
    def test_equals_per_realization_streams(self, sampler, seed, lam):
        roads = sample_road_set(gp(lam), R, sampler, seed, 200)
        assert len(roads) == 200
        for i, road in enumerate(roads):
            want = reference_roads(gp(lam), R, sampler, road_stream(seed, i))
            np.testing.assert_array_equal(road.chord_distances, want.chord_distances)
        if lam == 0.0:
            assert roads.counts.max() == 0 and roads.chord_distances.size == 0

    @pytest.mark.parametrize("sampler, law", [("paper", np.sqrt), ("standard", lambda u: u)])
    def test_draw_order_poisson_uniform_chord_law(self, sampler, law):
        roads = sample_road_set(gp(9.0), R, sampler, 11, 50)
        mean = 2 * np.pi * 9.0 * R
        want = []
        for i in range(50):
            rng = road_stream(11, i)
            want.append(R * law(rng.uniform(size=rng.poisson(mean))))
        np.testing.assert_array_equal(roads.counts, [w.size for w in want])
        np.testing.assert_array_equal(roads.chord_distances, np.concatenate(want))

    def test_congestion_road_set_is_the_scenario_streams(self, link_budget, noise_limited):
        scn = Scenario(link_budget=link_budget, interference=noise_limited,
                       service=Service(rate_bps=500e3), geometry=gp(5.0),
                       sampler="standard", seed=9, mc_realizations=30)
        got = road_set(scn)
        want = sample_road_set(gp(5.0), R, "standard", 9, 30)
        np.testing.assert_array_equal(got.counts, want.counts)
        np.testing.assert_array_equal(got.chord_distances, want.chord_distances)

    def test_iter_yields_read_only_one_realization_sets(self):
        parts = [[0.1, 0.5], [], [0.3]]
        roads = RoadSet(counts=[2, 0, 1], chord_distances=[0.1, 0.5, 0.3])
        assert not roads.counts.flags.writeable
        assert not roads.chord_distances.flags.writeable
        items = list(roads)
        assert len(items) == 3
        for got, want in zip(items, parts):
            assert isinstance(got, RoadSet) and len(got) == 1
            np.testing.assert_array_equal(got.counts, [len(want)])
            np.testing.assert_array_equal(got.chord_distances, want)
            assert not got.counts.flags.writeable
            assert not got.chord_distances.flags.writeable
        assert list(RoadSet(counts=[], chord_distances=[])) == []

    @pytest.mark.parametrize("counts, r", [([], []), ([1, 0], [0.2])], ids=["none", "two"])
    def test_a_fixed_road_is_one_realization(self, link_budget, noise_limited, counts, r):
        scn = Scenario(link_budget=link_budget, interference=noise_limited,
                       service=Service(rate_bps=500e3), geometry=gp(5.0))
        roads = RoadSet(counts=counts, chord_distances=r)
        for use in (lambda: conditional_congestion(scn, roads, 1),
                    lambda: gamma_samples(scn, 1, roads)):
            with pytest.raises(DomainError, match="one road realization"):
                use()

    @pytest.mark.parametrize("counts, r", [([1], [-0.1]), ([2], [0.1]), ([-1, 2], [0.1]),
                                           ([[1]], [0.1])])
    def test_rejects_malformed(self, counts, r):
        with pytest.raises(DomainError):
            RoadSet(counts=counts, chord_distances=r)


def per_road_segments(scn, roads):
    """The chord-segment matrix one realization at a time."""
    u2, v2, _ = outdoor_rings(scn)
    seg = np.empty((len(roads), u2.size))
    for i, road in enumerate(roads):
        r2 = road.chord_distances ** 2
        seg[i] = (np.sqrt(np.maximum(v2[:, None] - r2[None, :], 0.0))
                  - np.sqrt(np.maximum(u2[:, None] - r2[None, :], 0.0))).sum(axis=1)
    return seg


class TestChordSegments:
    @pytest.mark.parametrize("sampler", ["paper", "standard"])
    @pytest.mark.parametrize("region", [None, (0.2, 0.55)])
    def test_equals_per_road_loop_on_rings(self, link_budget, three_region,
                                           sampler, region):
        scn = Scenario(link_budget=replace(link_budget, prop_const_db=150.0),
                       interference=three_region, service=Service(rate_bps=500e3),
                       geometry=gp(9.0), sampler=sampler, seed=4,
                       mc_realizations=300, region_km=region)
        assert outdoor_rings(scn)[0].size > 1
        roads = road_set(scn)
        np.testing.assert_array_equal(chord_segments(scn, roads),
                                      per_road_segments(scn, roads))

    def test_empty_realizations_have_zero_rows(self, link_budget, noise_limited):
        scn = Scenario(link_budget=link_budget, interference=noise_limited,
                       service=Service(rate_bps=500e3), geometry=gp(0.0),
                       mc_realizations=5)
        np.testing.assert_array_equal(chord_segments(scn, road_set(scn)), np.zeros((5, 1)))


def test_gamma_samples_blocks_are_the_mc_streams(link_budget, three_region):
    # block b draws from numpy's own generator on (seed, MC_TAG, b), in the
    # documented order, whatever the seed's size
    scn = Scenario(link_budget=link_budget, interference=three_region,
                   service=Service(rate_bps=500e3), geometry=gp(4.0), seed=2**40 + 1,
                   mc_realizations=10)
    got = gamma_samples(scn, 3 * BLOCK + 5)
    for values, want in zip(got, reference_gamma_samples(scn, 3 * BLOCK + 5)):
        np.testing.assert_array_equal(values, want)
    assert got[0].sum() > 0


def oracle_inputs():
    """The simulate inputs the oracle's contract is pinned on: one outdoor
    interval or five, regions cutting the chords, 142 indoor levels,
    indoor users or none."""
    fig8 = bundled_scenario("fig8_regions")
    fig8_rings = replace(fig8, prop_const_db=150.0, sampler="standard")
    inputs = {
        "fig4": bundled_scenario("fig4").to_scenario(),
        "fig6_mixed": bundled_scenario("fig6_mixed").to_scenario(),
        "fig6_mixed_n256": replace(bundled_scenario("fig6_mixed"),
                                   max_user_prbs=256).to_scenario(),
        "fig2_tau30_noise_limited": bundled_scenario("fig2_tau30").to_scenario(
            noise_limited=True),
        "fig7": bundled_scenario("fig7").to_scenario(),
    }
    for region in (None, "center", "middle", "edge"):
        inputs[f"fig8_{region}"] = fig8.to_scenario(region=region)
    for region in (None, "middle"):
        inputs[f"fig8_rings_{region}"] = fig8_rings.to_scenario(region=region)
    return inputs


ORACLE_INPUTS = oracle_inputs()


class TestOracleBits:
    """gamma_samples draws one count for the users of a replication's whole
    chords on one step. The reference in conftest, which follows the
    documented draw order chord by chord and user by user, pins every
    output bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_equals_the_per_user_reference(self, name):
        scn = ORACLE_INPUTS[name]
        for got, want in zip(gamma_samples(scn, 1003), reference_gamma_samples(scn, 1003)):
            np.testing.assert_array_equal(got, want)

    def test_inputs_take_every_path(self, monkeypatch):
        # whole chords only, or whole and crossing chords in one block
        blocks, split = [], []

        class Spy:
            """A block's generator that logs the kind and size of each draw."""

            def __init__(self, rng):
                self.rng, self.draws = rng, []
                blocks.append(self.draws)

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    out = getattr(self.rng, name)(*args, **kwargs)
                    self.draws.append((name, np.size(out)))
                    return out
                return draw

        monkeypatch.setattr(simulate, "streams", lambda *args: map(Spy, streams(*args)))
        monkeypatch.setattr(simulate, "chord_user_km",
                            lambda r2, *args: split.append(r2.size) or chord_user_km(r2, *args))
        gamma_samples(ORACLE_INPUTS["fig4"], 1003)
        # one count per replication for roads, whole chords and indoor
        # users; no per-chord count, no offset and no distance
        assert len(blocks) == -(-1003 // BLOCK) and split == []
        for draws in blocks:
            assert [n for kind, n in draws if kind != "uniform"] == [BLOCK] * 3
        blocks.clear()
        gamma_samples(ORACLE_INPUTS["fig8_middle"], 1003)
        # some chords cross a region edge and get a count each; the rest
        # lie whole outside the region and draw nothing
        assert len(split) == len(blocks)
        for draws, crossing in zip(blocks, split):
            chords = draws[1][1]
            assert 0 < crossing < chords and ("poisson", crossing) in draws
        # and the lookup table meets a many-interval profile
        assert ORACLE_INPUTS["fig6_mixed_n256"].demand_steps[1].values.size == 142

    @pytest.mark.parametrize("region", [None, "middle", "edge"])
    def test_fixed_road(self, region):
        # through the centre, on the edge and beyond it, clipped to R
        scn = replace(ORACLE_INPUTS[f"fig8_{region}"], seed=12)
        road = fixed_road([0.0, 0.05, 0.2, 0.2333333333333333, 0.44, 0.6, 0.7, 0.9])
        want = reference_gamma_samples(scn, 300, road)
        for got, expected in zip(gamma_samples(scn, 300, road), want):
            np.testing.assert_array_equal(got, expected)

    def test_empty_blocks(self, link_budget, three_region):
        scn = Scenario(link_budget=link_budget, interference=three_region,
                       service=Service(rate_bps=500e3),
                       geometry=GeometryParams(road_intensity=0.0, user_intensity_linear=6.0,
                                               user_intensity_area=0.0))
        got = gamma_samples(scn, BLOCK + 1)
        for values, want in zip(got, reference_gamma_samples(scn, BLOCK + 1)):
            np.testing.assert_array_equal(values, want)
            np.testing.assert_array_equal(values, 0)


class TestOracleLaw:
    """Drawing the users of whole chords as one count keeps the law of
    gamma and of both user counts."""

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_mean_matches_the_per_user_drawer(self, name):
        # the earlier drawer, every user on its chord, at independent seeds
        scn = ORACLE_INPUTS[name]
        reps = 4000
        users = per_user_drop(scn.geometry, scn.cell_radius_km, scn.sampler,
                              road_stream(scn.seed, 1), reps)
        for got, want in zip(gamma_samples(scn, reps), per_user_demand(scn, users)):
            se = math.sqrt((got.var(ddof=1) + want.var(ddof=1)) / reps)
            assert abs(float(got.mean()) - float(want.mean())) <= 5.0 * se + 1e-12

    @pytest.mark.parametrize("name, region", [("fig6_mixed", None), ("fig8_regions", "center"),
                                              ("fig8_regions", "middle"),
                                              ("fig8_regions", "edge")])
    def test_mean_matches_closed_form(self, name, region):
        reps = 20_000
        scn = bundled_scenario(name).to_scenario(region=region)
        gammas, _, _ = gamma_samples(scn, reps)
        se = float(gammas.std(ddof=1)) / math.sqrt(reps)
        assert abs(float(gammas.mean()) - expected_load(scn)) <= 5.0 * se
