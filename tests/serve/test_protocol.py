"""Protocol-layer unit + property tests: parsing, canonicalization,
cache keys, digests.  No daemon involved."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ClusterConfig
from repro.runtime import run
from repro.serve.protocol import (
    QueryRequest,
    ServeError,
    cache_key,
    canonical_config,
    parse_query,
    result_digest,
    result_payload,
)

SIG = ("/tmp/g.rcsr", 123456789, 4096)


def _query(**overrides):
    base = {"op": "query", "graph": "g.rcsr", "algorithm": "diameter"}
    base.update(overrides)
    return base


class TestParseQuery:
    def test_minimal_request_gets_cli_defaults(self):
        req = parse_query(_query())
        assert req.graph == "g.rcsr"
        assert req.algorithm == "diameter"
        assert req.config.seed == 0
        assert req.config.stage_threshold_factor == 1.0
        assert req.executor is None and req.workers is None

    def test_top_level_seed_tau_shortcuts(self):
        req = parse_query(_query(seed=7, tau=32))
        assert req.config.seed == 7
        assert req.config.tau == 32

    def test_config_block_wins_over_shortcuts(self):
        req = parse_query(_query(seed=7, config={"seed": 3}))
        assert req.config.seed == 3

    def test_executor_workers_shards(self):
        req = parse_query(
            _query(executor="sharded", workers=2, shards=2)
        )
        assert (req.executor, req.workers, req.shards) == ("sharded", 2, 2)

    @pytest.mark.parametrize("name", ["vector", "sharded"])
    def test_every_executor_name_accepted(self, name):
        # Top level and inside the config block, as the CLI spells it.
        assert parse_query(_query(executor=name)).executor == name
        assert parse_query(_query(config={"executor": name})).executor == name

    def test_options_sorted_into_tuple(self):
        req = parse_query(_query(options={"source": 3, "delta": 2.0}))
        assert req.options == (("delta", 2.0), ("source", 3))
        assert req.option_dict() == {"source": 3, "delta": 2.0}

    @pytest.mark.parametrize(
        "bad",
        [
            _query(graph=""),
            _query(graph=7),
            {"op": "query", "algorithm": "diameter"},
            _query(algorithm=""),
            _query(config={"no_such_knob": 1}),
            _query(config=[1, 2]),
            _query(executor=3),
            _query(executor="parallel"),
            _query(executor="gpu"),
            _query(executor="serial"),
            _query(workers="two"),
            _query(workers=True),
            _query(options={"arr": [1, 2]}),
            _query(options="x"),
            _query(config={"tau": "not-an-int"}),
            _query(config={"emit_threads": 2}),
        ],
    )
    def test_malformed_requests_rejected(self, bad):
        with pytest.raises(ServeError) as excinfo:
            parse_query(bad)
        assert excinfo.value.status == 400


# --------------------------------------------------------------------- #
# Canonicalization / cache-key properties
# --------------------------------------------------------------------- #

_CONFIG_FIELD_NAMES = [f.name for f in dataclasses.fields(ClusterConfig)]

# Generator for valid ClusterConfig override dicts, spanning ints,
# floats, bools, and None-able fields actually present on the config.
_override_values = {
    "tau": st.one_of(st.none(), st.integers(1, 1 << 20)),
    "initial_delta": st.one_of(
        st.just("mean"),
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    ),
    "gamma": st.floats(min_value=0.1, max_value=8.0, allow_nan=False),
    "stage_threshold_factor": st.floats(
        min_value=0.1, max_value=4.0, allow_nan=False
    ),
    "growing_step_cap": st.one_of(st.none(), st.integers(1, 100)),
    "max_delta_doublings": st.integers(1, 64),
    "seed": st.integers(0, 1 << 30),
    "target_quotient_nodes": st.integers(1, 100000),
    "quotient_exact_limit": st.integers(1, 100000),
}


@st.composite
def config_overrides(draw):
    keys = draw(
        st.lists(
            st.sampled_from(sorted(_override_values)),
            unique=True,
            max_size=len(_override_values),
        )
    )
    return {k: draw(_override_values[k]) for k in keys}


def _req(config: ClusterConfig) -> QueryRequest:
    return QueryRequest(graph="g", algorithm="diameter", config=config)


@settings(max_examples=60, deadline=None)
@given(config_overrides())
def test_equivalent_spellings_collapse(overrides):
    """Explicit defaults and int-for-float spellings share one key."""
    explicit = ClusterConfig(**overrides)
    # Respell every float override as an int when it is integral —
    # Python equality says the configs match, so the key must too.
    respelled_kwargs = {}
    for key, value in overrides.items():
        if isinstance(value, float) and not isinstance(value, bool):
            if value == int(value):
                value = int(value)
        respelled_kwargs[key] = value
    respelled = ClusterConfig(**respelled_kwargs)
    assert (explicit == respelled) == (
        cache_key(SIG, _req(explicit)) == cache_key(SIG, _req(respelled))
    )
    # Making defaults explicit never changes the key.
    fully_explicit = ClusterConfig(
        **{name: getattr(explicit, name) for name in _CONFIG_FIELD_NAMES}
    )
    assert cache_key(SIG, _req(explicit)) == cache_key(SIG, _req(fully_explicit))


@settings(max_examples=60, deadline=None)
@given(config_overrides(), config_overrides())
def test_differing_configs_never_collide(a_over, b_over):
    a, b = ClusterConfig(**a_over), ClusterConfig(**b_over)
    key_a, key_b = cache_key(SIG, _req(a)), cache_key(SIG, _req(b))
    if a == b:
        assert key_a == key_b
    else:
        assert key_a != key_b


@settings(max_examples=30, deadline=None)
@given(config_overrides())
def test_canonical_config_is_json_stable(overrides):
    import json

    config = ClusterConfig(**overrides)
    blob = json.dumps(canonical_config(config), sort_keys=True)
    assert blob == json.dumps(canonical_config(config), sort_keys=True)


def test_signature_is_part_of_the_key():
    config = ClusterConfig(seed=0, stage_threshold_factor=1.0)
    other_sig = (SIG[0], SIG[1] + 1, SIG[2])
    assert cache_key(SIG, _req(config)) != cache_key(other_sig, _req(config))


def test_platform_is_part_of_the_key():
    config = ClusterConfig(seed=0, stage_threshold_factor=1.0)
    base = QueryRequest(graph="g", algorithm="diameter", config=config)
    vec = QueryRequest(
        graph="g", algorithm="diameter", config=config, executor="vector"
    )
    assert cache_key(SIG, base) != cache_key(SIG, vec)


def test_algorithm_and_options_in_the_key():
    config = ClusterConfig(seed=0, stage_threshold_factor=1.0)
    sssp0 = QueryRequest(
        graph="g", algorithm="sssp", config=config, options=(("source", 0),)
    )
    sssp1 = QueryRequest(
        graph="g", algorithm="sssp", config=config, options=(("source", 1),)
    )
    diam = QueryRequest(graph="g", algorithm="diameter", config=config)
    keys = {cache_key(SIG, r) for r in (sssp0, sssp1, diam)}
    assert len(keys) == 3


# --------------------------------------------------------------------- #
# Digests and payloads
# --------------------------------------------------------------------- #


class TestResultDigest:
    def test_clustering_digest_is_bit_sensitive(self, small_mesh):
        result = run("cluster", small_mesh, tau=16)
        digest = result_digest(result.raw)
        assert digest == result_digest(result.raw)  # deterministic
        clustering = result.raw
        center = clustering.center.copy()
        center[0] ^= 1  # flip one center assignment
        mutated = dataclasses.replace(clustering, center=center)
        assert result_digest(mutated) != digest

    def test_diameter_digest_covers_value_and_clustering(self, small_mesh):
        result = run("diameter", small_mesh, tau=16)
        est = result.raw
        assert result_digest(est) == result_digest(est)
        mutated = dataclasses.replace(est, value=est.value + 1.0)
        assert result_digest(mutated) != result_digest(est)

    def test_sssp_digest_hashes_distances(self, weighted_path):
        result = run("sssp", weighted_path, source=0)
        digest = result_digest(result.raw)
        mutated = dataclasses.replace(
            result.raw, dist=result.raw.dist + 1.0
        )
        assert result_digest(mutated) != digest

    def test_matching_runs_share_a_digest(self, random_connected):
        a = run("cluster", random_connected, tau=4, seed=3)
        b = run("cluster", random_connected, tau=4, seed=3)
        assert result_digest(a.raw) == result_digest(b.raw)
        c = run("cluster", random_connected, tau=4, seed=4)
        assert result_digest(c.raw) != result_digest(a.raw)


class TestResultPayload:
    def test_payload_is_json_native(self, small_mesh):
        import json

        result = run("eccentricity", small_mesh, tau=16)
        payload = result_payload(result, SIG)
        blob = json.dumps(payload)  # raises on any numpy leftovers
        round_trip = json.loads(blob)
        assert round_trip["algorithm"] == "eccentricity"
        assert round_trip["graph"]["signature"] == list(SIG)
        assert "rounds" in round_trip["counters"]
        assert set(round_trip["timings"]) >= {"emit", "shuffle", "reduce"}
        assert round_trip["digest"] == result_digest(result.raw)

    def test_payload_value_matches_run(self, weighted_path):
        result = run("diameter", weighted_path, tau=4)
        payload = result_payload(result, SIG)
        assert payload["value"] == pytest.approx(result.value)
        assert payload["graph"]["n"] == weighted_path.num_nodes
