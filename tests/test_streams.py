"""Stream contract: the batched seeding and road drawing reproduce, bit for
bit, the one-stream definitions in conftest (numpy's own seeding of
stream (seed, i), then one realization's draw).

The batched path ports numpy's SeedSequence hash and PCG64 seeding, so
these tests also guard against a numpy release that seeds differently.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import fixed_road, reference_gamma_samples, reference_roads, road_stream

from prbdim import (DomainError, GeometryParams, RoadSet, Scenario, Service,
                    sample_road_set, sample_user_block)
from prbdim import UserBlock, geometry, simulate
from prbdim.congestion import chord_segments, conditional_congestion, road_set
from prbdim.geometry import chord_user_km, stream_states, streams
from prbdim.scenario_io import bundled_scenario
from prbdim.simulate import BLOCK, MC_TAG, block_demand, gamma_samples

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
                    lambda: sample_user_block(scn.geometry, R, "paper", road_stream(0, 0), 4,
                                              roads),
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
    u2, v2, _ = scn._outdoor_table
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
        assert scn._outdoor_table[0].size > 1
        roads = road_set(scn)
        np.testing.assert_array_equal(chord_segments(scn, roads),
                                      per_road_segments(scn, roads))

    def test_empty_realizations_have_zero_rows(self, link_budget, noise_limited):
        scn = Scenario(link_budget=link_budget, interference=noise_limited,
                       service=Service(rate_bps=500e3), geometry=gp(0.0),
                       mc_realizations=5)
        np.testing.assert_array_equal(chord_segments(scn, road_set(scn)), np.zeros((5, 1)))


def test_gamma_samples_blocks_are_the_mc_streams(link_budget, three_region):
    scn = Scenario(link_budget=link_budget, interference=three_region,
                   service=Service(rate_bps=500e3), geometry=gp(4.0), seed=2**40 + 1,
                   mc_realizations=10)
    got = gamma_samples(scn, 3 * BLOCK + 5)
    want = []
    for block in range(4):
        rng = np.random.default_rng(np.random.SeedSequence((scn.seed, MC_TAG, block)))
        users = sample_user_block(scn.geometry, R, scn.sampler, rng, BLOCK)
        want.append(block_demand(scn, users))
    for k, values in enumerate(got):
        np.testing.assert_array_equal(values, np.concatenate([w[k] for w in want])[:3 * BLOCK + 5])


def oracle_inputs():
    """The simulate inputs the oracle's bit contract is pinned on: one
    outdoor interval or five, regions cutting the chords, 142 indoor
    levels, indoor users or none."""
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
    """gamma_samples sums whole chords where it can; the user-by-user
    reference in conftest pins every output bit."""

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_equals_the_per_user_reference(self, name):
        scn = ORACLE_INPUTS[name]
        for got, want in zip(gamma_samples(scn, 1003), reference_gamma_samples(scn, 1003)):
            np.testing.assert_array_equal(got, want)

    def test_inputs_take_every_path(self, monkeypatch):
        # whole chords only, a few chords split out, or every user's distance
        calls = []
        monkeypatch.setattr(simulate, "chord_user_km",
                            lambda *args: calls.append("split") or chord_user_km(*args))
        monkeypatch.setattr(UserBlock, "outdoor_km", property(
            lambda users: calls.append("every") or chord_user_km(
                users.chord_r2, users.chord_half2, users.chord_users, users.offsets)))
        paths = {}
        for name in ("fig4", "fig8_center", "fig8_middle"):
            calls.clear()
            gamma_samples(ORACLE_INPUTS[name], 1003)
            paths[name] = set(calls)
        assert paths == {"fig4": set(), "fig8_center": {"split"}, "fig8_middle": {"every"}}
        # and the lookup table meets a many-interval profile
        intervals = ORACLE_INPUTS["fig6_mixed_n256"].profiles[1].rings.values()
        assert sum(map(len, intervals)) == 142

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
