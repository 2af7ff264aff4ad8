"""Live serving scenario: the tier gateway over a deployed cluster.

Offline, the image-classification service is measured (the calibrated CPU
profiles of SqueezeNet and ResNet-50) and routing rules are generated from
the first measured requests.  Online, exactly those two versions are
deployed as node pools behind a load balancer — each node answers with
the measured error, latency and confidence of the request it is handed —
and fronted by a :class:`~repro.service.gateway.TierGateway` over the live
:class:`~repro.service.gateway.DirectBackend`.  Consumers then submit
held-out requests with the paper's ``Tolerance`` / ``Objective`` headers —
a photo organiser that just wants quick labels uses the 10 % tier, a
medical-imaging triage app insists on the 0 % tier — and the gateway
escalates from SqueezeNet to ResNet-50 on SqueezeNet's confidence.  A
final batch shows the session surface: tickets from ``submit_batch`` with
a per-request deadline.

Run with::

    python examples/live_image_service.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    RoutingRuleGenerator,
    TierRouter,
    enumerate_configurations,
)
from repro.service import Objective, ServiceRequest, measure_ic_service
from repro.service.gateway import DirectBackend, TierGateway
from repro.service.simulation import build_replay_cluster

FAST, ACCURATE = "ic_cpu_squeezenet", "ic_cpu_resnet50"
N_RULE_ROWS, N_SERVED_ROWS = 2000, 1000


def main() -> None:
    # Offline: measure the two deployed versions and generate routing
    # rules on the first rows; the rest are held out for serving.
    kept = measure_ic_service(
        N_RULE_ROWS + N_SERVED_ROWS, device="cpu", seed=4
    ).restrict_versions([FAST, ACCURATE])
    rule_rows = kept.subset(range(N_RULE_ROWS))
    served_ids = kept.request_ids[N_RULE_ROWS:]
    configurations = enumerate_configurations(
        rule_rows,
        thresholds=(0.4, 0.5, 0.6, 0.7),
        fast_versions=[FAST],
        accurate_version=ACCURATE,
    )
    generator = RoutingRuleGenerator(
        rule_rows, configurations, confidence=0.99, seed=0,
        min_trials=8, max_trials=40,
    )
    tolerances = [0.01, 0.05, 0.10]
    tables = {
        objective: generator.generate(tolerances, objective)
        for objective in (Objective.RESPONSE_TIME, Objective.COST)
    }
    router = TierRouter(tables)
    print(f"Rules generated on the first {N_RULE_ROWS} measured requests:")
    for objective, table in tables.items():
        for tolerance in tolerances:
            rule = table.config_for(tolerance).name
            print(f"  {objective.value:13s} {tolerance:4.0%} tier: {rule}")

    # Online: deploy node pools for exactly those versions and the
    # annotated-request endpoint.
    cluster = build_replay_cluster(kept, {FAST: 2, ACCURATE: 1})
    gateway = TierGateway(DirectBackend(cluster), router=router)

    def top1(response) -> str:
        row = kept.request_ids.index(response.result)
        wrong = kept.error[row, kept.version_index(response.versions_used[-1])]
        return "wrong" if wrong else "right"

    rng = np.random.default_rng(0)
    print(f"\nServing {N_SERVED_ROWS} held-out requests (paper Section IV-A):")
    for consumer, headers in (
        ("photo-organiser", {"Tolerance": "0.10", "Objective": "response-time"}),
        ("shopping-app", {"Tolerance": "0.05", "Objective": "cost"}),
        ("medical-triage", {"Tolerance": "0.0", "Objective": "response-time"}),
    ):
        image = served_ids[int(rng.integers(N_SERVED_ROWS))]
        response = gateway.handle_http(
            request_id=f"{consumer}_{image}", payload=image, headers=headers
        )
        print(
            f"  {consumer:16s} tier={headers['Tolerance']:>4s}/{headers['Objective']:<13s} "
            f"versions={'+'.join(response.versions_used):36s} "
            f"top-1 {top1(response)}  "
            f"latency={response.response_time_s * 1000:6.1f} ms  "
            f"cost=${response.invocation_cost * 1e6:.2f}e-6"
        )

    # The session surface: a burst of 10 %-tier cost-objective requests as
    # tickets, each against a 150 ms response-time deadline.  Its sequential
    # rule escalates only the requests SqueezeNet is unsure of.
    batch = [
        ServiceRequest(
            request_id=f"burst_{i:02d}",
            payload=served_ids[int(rng.integers(N_SERVED_ROWS))],
            tolerance=0.10,
            objective=Objective.COST,
        )
        for i in range(8)
    ]
    tickets = gateway.submit_batch(batch, deadline_s=0.150)
    met = sum(1 for t in tickets if t.deadline_met)
    escalated = sum(
        1 for t in tickets if len(t.result().versions_used) > 1
    )
    print(
        f"\nBurst of {len(tickets)} ticketed requests: "
        f"{met}/{len(tickets)} met the 150 ms deadline, "
        f"{escalated} escalated to the accurate model"
    )

    print("\nProvider-side IaaS spend per version:")
    for version, spend in cluster.iaas_spend().items():
        print(f"  {version}: ${spend * 1e6:.2f}e-6")


if __name__ == "__main__":
    main()
