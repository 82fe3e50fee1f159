"""Entity tagging / marker semantics (reference
src/utils/preprocess.py:109-220, preprocessing_funcs.py:53-62,
misc.py:28-52)."""

import math

from finance_sc_relations_ray.functions.tagging import (
    entity_annotation,
    extract_tagged_names,
    inverse_relations,
    mutate_sent,
)


def test_entity_annotation_basic():
    sent = "Apple Inc supplied parts to Dell Technologies."
    groups = {"Apple Inc": 0, "Dell Technologies": 1}
    out = entity_annotation(sent, "Apple Inc", "Dell Technologies", groups)
    assert len(out) == 1
    tagged = out[0]
    assert "[E1] Apple Inc [/E1]" in tagged
    assert "[E2] Dell Technologies [/E2]" in tagged
    assert extract_tagged_names(tagged) == ("Apple Inc", "Dell Technologies")


def test_entity_annotation_group_members_replaced():
    """All surface forms of a group collapse to the representative."""
    sent = 'Fujitsu Limited ("Fujitsu") supplied parts to Apple Inc.'
    groups = {"Fujitsu Limited": 0, "Fujitsu": 0, "Apple Inc": 1}
    out = entity_annotation(sent, "Fujitsu Limited", "Apple Inc", groups)
    assert out
    # every variant tags exactly one E1 and one E2
    for tagged in out:
        assert tagged.count("[E1]") == 1 and tagged.count("[/E1]") == 1
        assert tagged.count("[E2]") == 1 and tagged.count("[/E2]") == 1
        e1, e2 = extract_tagged_names(tagged)
        assert e1 == "Fujitsu Limited"
        assert e2 == "Apple Inc"


def test_entity_annotation_position_variants_and_cap():
    sent = "Apple Inc and Apple Inc work with Dell Technologies and Dell Technologies."
    groups = {"Apple Inc": 0, "Dell Technologies": 1}
    out = entity_annotation(sent, "Apple Inc", "Dell Technologies", groups, math.inf)
    assert len(out) == 4  # 2 E1 positions × 2 E2 positions
    capped = entity_annotation(sent, "Apple Inc", "Dell Technologies", groups, 3)
    assert len(capped) == 3
    assert capped == out[:3]


def test_entity_annotation_possessive():
    """'’s' possessives normalized before replacement
    (preprocess.py:163-169)."""
    sent = "Apple Inc’s chips come from Taiwan Semiconductor Manufacturing Company."
    groups = {"Apple Inc": 0, "Taiwan Semiconductor Manufacturing Company": 1}
    out = entity_annotation(
        sent, "Apple Inc", "Taiwan Semiconductor Manufacturing Company", groups
    )
    assert out
    assert "[E1] Apple Inc [/E1]" in out[0]


def test_inverse_relations_roundtrip():
    s = "[E1] A [/E1] x [E2] B [/E2]"
    inv = inverse_relations(s)
    assert inv == "[E2] A [/E2] x [E1] B [/E1]"
    assert inverse_relations(inv) == s


def test_mutate_sent_deterministic_and_group_shared():
    sent = "Apple Inc buys from Dell Technologies while Apple Inc sells."
    groups = {"Apple Inc": 0, "Dell Technologies": 1}
    m1 = mutate_sent(sent, groups, seed_key="u1|0")
    m2 = mutate_sent(sent, groups, seed_key="u1|0")
    assert m1 == m2
    assert "Apple Inc" not in m1 and "Dell Technologies" not in m1
    # same pseudonym for both occurrences of the group
    import re

    names = re.findall(r"org-[a-z-]+", m1)
    assert len(names) == 3 and names[0] == names[2]
