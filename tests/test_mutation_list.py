"""The mutation report of ``mutate_and_check``, pinned in full.

For a certificate of n steps the report lists, in this order, "drop step
i" and "duplicate step i" for each i, then "swap steps i,i+1" for each
adjacent pair, each with the verdict of its replay.  Two certificates are
pinned: the Segal certificate of ``r[c[] d e[a b] f]`` (4 steps) and
``pp-stable`` of ``s0[s1 s2] x t0[t1]`` (5 steps).
"""

from dendro.anodyne import segal_certificate
from dendro.certify import Verdict, mutate_and_check
from dendro.pushout import certify_pp_stable
from dendro.trees import parse_tree

SEGAL = [
    ('drop step 0', Verdict(accepted=False, step_index=1, reason="horn incomplete: face top(c) of (('a', 'b', 'c', 'd', 'f', 'r'), ('c',)) missing")),
    ('duplicate step 0', Verdict(accepted=False, step_index=1, reason="step face (('a', 'b', 'c', 'd', 'e', 'f', 'r'), ()) already present")),
    ('drop step 1', Verdict(accepted=False, step_index=2, reason="horn incomplete: face top(e) of (('a', 'b', 'c', 'd', 'e', 'f', 'r'), ('c',)) missing")),
    ('duplicate step 1', Verdict(accepted=False, step_index=2, reason="step face (('c', 'd', 'e', 'f', 'r'), ('c',)) already present")),
    ('drop step 2', Verdict(accepted=False, step_index=2, reason="horn incomplete: face inner(e) of (('a', 'b', 'c', 'd', 'e', 'f', 'r'), ('c',)) missing")),
    ('duplicate step 2', Verdict(accepted=False, step_index=3, reason="step face (('a', 'b', 'c', 'd', 'f', 'r'), ('c',)) already present")),
    ('drop step 3', Verdict(accepted=False, step_index=None, reason='final complex is not the full complex')),
    ('duplicate step 3', Verdict(accepted=False, step_index=4, reason="step face (('a', 'b', 'c', 'd', 'e', 'f', 'r'), ('c',)) already present")),
    ('swap steps 0,1', Verdict(accepted=True, step_index=None, reason='')),
    ('swap steps 1,2', Verdict(accepted=True, step_index=None, reason='')),
    ('swap steps 2,3', Verdict(accepted=False, step_index=2, reason="horn incomplete: face inner(e) of (('a', 'b', 'c', 'd', 'e', 'f', 'r'), ('c',)) missing")),
]

PP_STABLE = [
    ('drop step 0', Verdict(accepted=False, step_index=0, reason="horn incomplete: face inner(s2,t0) of (('s0,t0', 's1,t1', 's2,t0', 's2,t1'), ()) missing")),
    ('duplicate step 0', Verdict(accepted=False, step_index=1, reason="step face (('s0,t0', 's0,t1', 's1,t1', 's2,t1'), ()) already present")),
    ('drop step 1', Verdict(accepted=False, step_index=3, reason="horn incomplete: face inner(s1,t0) of (('s0,t0', 's1,t0', 's1,t1', 's2,t0', 's2,t1'), ()) missing")),
    ('duplicate step 1', Verdict(accepted=False, step_index=2, reason="step face (('s0,t0', 's1,t1', 's2,t0', 's2,t1'), ()) already present")),
    ('drop step 2', Verdict(accepted=False, step_index=2, reason="horn incomplete: face top(s1,t0) of (('s0,t0', 's1,t0', 's1,t1', 's2,t1'), ()) missing")),
    ('duplicate step 2', Verdict(accepted=False, step_index=3, reason="step face (('s0,t0', 's1,t0', 's2,t0', 's2,t1'), ()) already present")),
    ('drop step 3', Verdict(accepted=False, step_index=3, reason="horn incomplete: face inner(s2,t0) of (('s0,t0', 's1,t0', 's1,t1', 's2,t0', 's2,t1'), ()) missing")),
    ('duplicate step 3', Verdict(accepted=False, step_index=4, reason="step face (('s0,t0', 's1,t0', 's1,t1', 's2,t1'), ()) already present")),
    ('drop step 4', Verdict(accepted=False, step_index=None, reason='final complex is not the full complex')),
    ('duplicate step 4', Verdict(accepted=False, step_index=5, reason="step face (('s0,t0', 's1,t0', 's1,t1', 's2,t0', 's2,t1'), ()) already present")),
    ('swap steps 0,1', Verdict(accepted=False, step_index=0, reason="horn incomplete: face inner(s2,t0) of (('s0,t0', 's1,t1', 's2,t0', 's2,t1'), ()) missing")),
    ('swap steps 1,2', Verdict(accepted=True, step_index=None, reason='')),
    ('swap steps 2,3', Verdict(accepted=False, step_index=2, reason="horn incomplete: face top(s1,t0) of (('s0,t0', 's1,t0', 's1,t1', 's2,t1'), ()) missing")),
    ('swap steps 3,4', Verdict(accepted=False, step_index=3, reason="horn incomplete: face inner(s2,t0) of (('s0,t0', 's1,t0', 's1,t1', 's2,t0', 's2,t1'), ()) missing")),
]


def _report(cert) -> list:
    return [(m.description, m.verdict) for m in mutate_and_check(cert).mutations]


def test_segal_mutations():
    assert _report(segal_certificate(parse_tree("r[c[] d e[a b] f]"))) == SEGAL


def test_pp_stable_mutations():
    assert _report(certify_pp_stable(parse_tree("s0[s1 s2]"), parse_tree("t0[t1]"))) == PP_STABLE
