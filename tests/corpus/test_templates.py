"""Unit tests for the scenario-matrix templates and generator.

The load-bearing property is that a variant's *derived* oracle agrees
with its *drawn* parameters everywhere: the generable set is a subset
of the accept set, the two differ exactly on the seeded classes, and
the whole construction is a pure function of the seed.
"""

import pickle
import random
from itertools import product

import pytest

from repro.corpus import (
    TEMPLATES,
    build_variant,
    generate_corpus,
    parse_variant_token,
    variant_seed,
)
from repro.errors import ReproError
from repro.messages.concrete import encode

#: A handful of fixed seeds per template — enough draws to cover the
#: parameter space corners (pad/no-pad, wide/narrow fields, every bug
#: subset) without turning the suite into a lottery.
SEEDS = (0, 1, 2, 3, 4, 5, 6, 7)


def _variants():
    return [build_variant(template, seed)
            for template in TEMPLATES for seed in SEEDS]


def _sample_messages(variant, count=400):
    """Deterministic samples biased toward the variant's constants.

    Pure random bytes almost never hit an accept path, so half the
    samples draw each field from its drawn constants (kinds, ids,
    values that appear in the params record) plus small integers.
    """
    rng = random.Random(variant.seed ^ 0xC0FFEE)
    interesting = {0, 1, 2, 3, 255}
    stack = list(variant.params.values())
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, int):
            interesting.add(value & 0xFF)
            interesting.add(value)
    choices = sorted(interesting)
    samples = []
    for _ in range(count):
        fields = {}
        for field in variant.layout.fields:
            limit = 1 << (8 * field.size)
            if rng.random() < 0.5:
                fields[field.name] = rng.choice(choices) % limit
            else:
                fields[field.name] = rng.randrange(limit)
        samples.append(encode(variant.layout, fields))
    return samples


def _seed_messages(variant):
    """Directed probes into each region, re-derived from the params
    record independently of the oracle implementation."""
    p = variant.params
    make = lambda **fields: encode(variant.layout, dict(
        {f.name: 0 for f in variant.layout.fields}, **fields))
    if variant.template == "tpc":
        durable, no_op = p["flag_durable"], p["no_op"]
        return [
            make(kind=p["kinds"]["prepare"], txid=1, flags=durable,
                 op=(no_op + 1) % 256),                      # generable
            make(kind=p["kinds"]["commit"], txid=1, flags=0,
                 op=no_op),                                  # generable
            make(kind=p["kinds"]["prepare"], txid=1, flags=0,
                 op=(no_op + 1) % 256),                      # skip-wal?
            make(kind=p["kinds"]["prepare"], txid=1, flags=durable,
                 op=no_op),                                  # empty-op?
            make(kind=0, txid=1),                            # rejected
        ]
    if variant.template == "raft":
        current = p["current_term"]
        leaders, terms = p["term_leaders"], p["log_terms"]
        last = len(terms) - 1
        return [
            make(type=p["kinds"]["append"], term=current,
                 sender=leaders[current - 1], idx=0,
                 logterm=terms[0], cmd=9),                   # generable
            make(type=p["kinds"]["append"], term=1,
                 sender=leaders[0], idx=0, logterm=terms[0]),  # stale?
            make(type=p["kinds"]["vote"], term=current,
                 sender=p["node_ids"][0], idx=last,
                 logterm=terms[last], cmd=0),                # generable
            make(type=p["kinds"]["vote"], term=current,
                 sender=p["node_ids"][0], idx=last - 1,
                 logterm=terms[last], cmd=0),                # off-by-one?
            make(type=0),                                    # rejected
        ]
    ids = p["node_ids"]
    others = [n for n in ids if n != p["broadcaster"]]
    thin = (1 << ids[0]) | (1 << ids[1])
    full = thin | (1 << ids[2])
    return [
        make(kind=p["kinds"]["send"], sender=p["broadcaster"],
             value=p["broadcast_value"]),                    # generable
        make(kind=p["kinds"]["send"], sender=others[0],
             value=p["broadcast_value"]),                    # forged?
        make(kind=p["kinds"]["ready"], sender=ids[0],
             value=p["broadcast_value"], cert=full),         # generable
        make(kind=p["kinds"]["ready"], sender=ids[0],
             value=p["broadcast_value"], cert=thin),         # thin?
        make(kind=0, sender=ids[0], value=p["broadcast_value"]),
    ]


class TestDeterminism:
    def test_same_seed_same_variant(self):
        for template in TEMPLATES:
            first = build_variant(template, 1234)
            second = build_variant(template, 1234)
            assert first.params == second.params
            assert first.classes == second.classes
            assert first.bugs == second.bugs
            assert [f.name for f in first.layout.fields] == \
                [f.name for f in second.layout.fields]

    def test_corpus_generation_is_reproducible(self):
        first = generate_corpus(corpus_seed=7, variants=9)
        second = generate_corpus(corpus_seed=7, variants=9)
        assert [v.token for v in first] == [v.token for v in second]
        assert [v.params for v in first] == [v.params for v in second]

    def test_corpus_round_robins_the_templates(self):
        corpus = generate_corpus(corpus_seed=0, variants=6)
        assert [v.template for v in corpus] == \
            list(TEMPLATES) + list(TEMPLATES)

    def test_variant_seed_is_a_stable_hash(self):
        # Pinned: a change here silently breaks every printed token.
        assert variant_seed(0, "tpc", 0) == 3670824676
        assert variant_seed(0, "tpc", 0) != variant_seed(0, "tpc", 1)
        assert variant_seed(0, "tpc", 0) != variant_seed(1, "tpc", 0)
        assert variant_seed(0, "tpc", 0) != variant_seed(0, "raft", 0)

    def test_token_round_trips(self):
        for variant in generate_corpus(corpus_seed=3, variants=3):
            rebuilt = parse_variant_token(variant.token)
            assert rebuilt.params == variant.params
            assert rebuilt.classes == variant.classes

    def test_bad_tokens_and_templates_are_rejected(self):
        with pytest.raises(ReproError):
            parse_variant_token("tpc")
        with pytest.raises(ReproError):
            parse_variant_token("tpc:notanumber")
        with pytest.raises(ReproError):
            build_variant("paxos", 0)
        with pytest.raises(ReproError):
            generate_corpus(templates=("tpc", "nope"))


class TestOracleSelfConsistency:
    @pytest.mark.parametrize("variant", _variants(),
                             ids=lambda v: v.token)
    def test_generable_subset_of_accepted_and_classified_difference(
            self, variant):
        accepted = generable = trojan = 0
        for message in _seed_messages(variant) + _sample_messages(variant):
            a = variant.accepts(message)
            g = variant.generable(message)
            cls = variant.classify(message)
            if g:
                generable += 1
                assert a, f"{variant.token}: generable but not accepted " \
                    f"{message.hex()}"
            if a:
                accepted += 1
            # classify is exactly the accepted-minus-generable set...
            assert (cls is not None) == (a and not g), message.hex()
            # ...and lands inside the declared class universe.
            if cls is not None:
                trojan += 1
                assert cls in variant.classes, f"{variant.token}: {cls}"
        # The biased sampler must actually exercise all three regions.
        assert accepted and generable and trojan, (
            f"{variant.token}: sampler missed a region "
            f"(accepted={accepted}, generable={generable}, "
            f"trojan={trojan})")

    @pytest.mark.parametrize("template", sorted(TEMPLATES))
    def test_every_variant_has_seeded_classes(self, template):
        # An empty universe would make recall undefined; generation must
        # never produce one (non-empty bug menu subsets by construction).
        for seed in range(50):
            variant = build_variant(template,
                                    variant_seed(0, template, seed))
            assert variant.bugs
            assert variant.classes

    def test_broadcast_thin_certificates_are_classes(self):
        # When thin-quorum is injected the class set enumerates exactly
        # the C(4,2)=6 two-bit member certificates.
        for seed in SEEDS:
            variant = build_variant("broadcast", seed)
            if "thin-quorum" not in " ".join(variant.bugs):
                continue
            thin = [cls for cls in variant.classes
                    if "thin-quorum" in cls]
            assert len(thin) == 6

    def test_raft_vote_class_is_never_generable(self):
        # The log draw forces a strict final term step, so the one-short
        # candidate log can never match the true last term: whenever the
        # vote bug is injected its class is real.
        for seed in range(30):
            variant = build_variant("raft",
                                    variant_seed(1, "raft", seed))
            log_terms = variant.params["log_terms"]
            assert log_terms[-2] < log_terms[-1]


class TestPicklability:
    def test_programs_and_oracles_survive_pickling(self):
        # Sharded runs ship the server program by pickle; the corpus
        # programs are callable dataclasses precisely for this.
        for template in TEMPLATES:
            variant = build_variant(template, 99)
            server = pickle.loads(pickle.dumps(variant.server))
            assert server.params == variant.server.params
            clients = pickle.loads(pickle.dumps(variant.clients))
            assert set(clients) == set(variant.clients)
            classify = pickle.loads(pickle.dumps(variant.classify))
            for message in _sample_messages(variant, count=50):
                assert classify(message) == variant.classify(message)


class TestLayoutPerturbation:
    def test_field_orders_vary_across_seeds(self):
        for template in TEMPLATES:
            orders = {tuple(f.name for f in
                            build_variant(template, seed).layout.fields)
                      for seed in range(20)}
            assert len(orders) > 3, f"{template}: layout never varies"

    def test_reserved_field_must_be_zero(self):
        for template in TEMPLATES:
            for seed in range(20):
                variant = build_variant(template, seed)
                if not variant.params["pad_size"]:
                    continue
                for message in _sample_messages(variant, count=200):
                    view = variant.layout.view("pad")
                    if any(message[view.offset:view.end]):
                        assert not variant.accepts(message)
                        assert not variant.generable(message)
                break
