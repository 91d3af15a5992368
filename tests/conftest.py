import pytest
from hypothesis import settings

from glbounds import corpus_entries, membership_for_bound, parse
from oracles import EVERY

# CI runs every property with five times its examples (--hypothesis-profile=ci);
# the default profile, with hypothesis's 100, is the local one.
settings.register_profile("ci", max_examples=500)


def examples(n):
    """n examples under the default profile, scaled with the loaded profile's."""
    return n * settings.default.max_examples // 100


@pytest.fixture(scope="session")
def corpus_by_name():
    return {entry.name: entry for entry in corpus_entries()}


@pytest.fixture(scope="session")
def membership_report(corpus_by_name):
    """Cached grid-64 membership scans, keyed by (entry name, q), each
    keeping every violation."""
    cache = {}

    def lookup(name, q):
        key = (name, q)
        if key not in cache:
            entry = corpus_by_name[name]
            cache[key] = membership_for_bound(parse(entry.expression), entry.interval, q, keep=EVERY)
        return cache[key]

    return lookup
