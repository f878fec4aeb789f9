"""Deterministic traffic generation for the serve daemon.

The paper's compatibility study drove SoftBound-protected *servers*
(tinyftp, nhttpd) with request streams; this module builds a mixed
request stream for the *service* out of those same workloads:

* the two server programs replayed under escalating protection
  profiles, each response checked against the workload's expected
  output fragments;
* the Wilander attack suite under full protection — every request is
  hostile and must come back 403 (detection is the service working);
* the BugBench programs under full protection (detected → 403, the
  paper's known-missed bugs → 200);
* deliberately malformed requests that must be rejected 400 before a
  worker is ever involved.

The mix is built from a seed (``random.Random(seed)`` shuffle) so two
runs against two builds replay byte-identical traffic.  Each
:class:`TrafficItem` carries its own acceptance oracle; the pipeline
benchmark's serve workload (``python3 perfbench/run.py --workload
serve-warm``) drives a daemon with this mix and judges every response
by it.
"""

import base64
import random
from dataclasses import dataclass

DEFAULT_SEED = 20090615  # PLDI'09


@dataclass(frozen=True)
class TrafficItem:
    """One request in the mix, with its acceptance oracle."""

    name: str
    category: str  # "server" | "clean" | "attack" | "bugbench" | "malformed"
    route: str
    #: JSON document to POST, or a raw bytes body for malformed items.
    doc: object
    expect_status: tuple
    expect_fragments: tuple = ()


def _server_items():
    from ..workloads.servers import SERVERS

    items = []
    for program in SERVERS:
        for profile in ("none", "spatial", "full"):
            items.append(TrafficItem(
                name=f"{program.name}-{profile}",
                category="server",
                route="/run",
                doc={
                    "name": program.name,
                    "source": program.source,
                    "profile": profile,
                    "input_b64": base64.b64encode(
                        program.request_stream).decode("ascii"),
                },
                expect_status=(200,),
                expect_fragments=tuple(program.expected_output_fragments)))
    return items


def _attack_items(limit=None):
    from ..workloads.attacks import all_attacks

    attacks = all_attacks()
    if limit is not None:
        attacks = attacks[:limit]
    return [TrafficItem(
        name=f"attack-{attack.name}",
        category="attack",
        route="/run",
        doc={"name": attack.name, "source": attack.source,
             "profile": "full"},
        expect_status=(403,)) for attack in attacks]


def _bugbench_items(limit=None):
    from ..workloads.bugbench import all_bugs

    bugs = all_bugs()
    if limit is not None:
        bugs = bugs[:limit]
    # Detection is profile-dependent (the paper's Table 4): accept
    # either verdict here — correctness of the verdicts themselves is
    # the detection matrix's test, not the traffic mix's.
    return [TrafficItem(
        name=f"bugbench-{bug.name}",
        category="bugbench",
        route="/run",
        doc={"name": bug.name, "source": bug.source, "profile": "full"},
        expect_status=(200, 403, 500)) for bug in bugs]


def _malformed_items():
    return [
        TrafficItem(name="malformed-not-json", category="malformed",
                    route="/run", doc=b"{not json",
                    expect_status=(400,)),
        TrafficItem(name="malformed-unknown-field", category="malformed",
                    route="/run",
                    doc={"source": "int main(void){return 0;}",
                         "profle": "spatial"},
                    expect_status=(400,)),
        TrafficItem(name="malformed-bad-profile", category="malformed",
                    route="/run",
                    doc={"source": "int main(void){return 0;}",
                         "profile": "no-such-profile"},
                    expect_status=(400,)),
        TrafficItem(name="malformed-no-source", category="malformed",
                    route="/run", doc={"profile": "spatial"},
                    expect_status=(400,)),
    ]


def build_mix(seed=DEFAULT_SEED, servers=True, attacks=6, bugs=4,
              malformed=True, repeats=1):
    """The deterministic request mix: same seed → byte-identical
    traffic, shuffled so categories interleave the way real traffic
    would.  ``attacks``/``bugs`` bound how many of each suite ride
    along (None → all); ``repeats`` replays the whole mix N times
    (cache-warm iterations for throughput measurement)."""
    items = []
    if servers:
        items.extend(_server_items())
    items.extend(_attack_items(limit=attacks))
    items.extend(_bugbench_items(limit=bugs))
    if malformed:
        items.extend(_malformed_items())
    rng = random.Random(seed)
    mix = []
    for _ in range(max(int(repeats), 1)):
        batch = list(items)
        rng.shuffle(batch)
        mix.extend(batch)
    return mix
