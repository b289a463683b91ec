"""Asynchronous Secure Aggregation, end to end (paper Section 5, App. A–C).

Walks the full Figure 16 protocol with real cryptographic machinery:

1. a Trusted Secure Aggregator (simulated enclave) mints Diffie–Hellman
   key-exchange legs carried by attestation quotes, and its binary is
   registered in a verifiable (Merkle) log;
2. clients verify the quote + log inclusion proof, mask their model
   updates with a PRNG-expanded one-time pad, and seal the 16-byte seed
   to the TSA;
3. the untrusted server aggregates *masked* updates incrementally — it
   never sees an individual update in the clear;
4. at the aggregation goal, the TSA releases the summed mask exactly
   once, and the server decodes only the aggregate.

Also demonstrates the tamper detection and the O(K+m) boundary traffic.

Run:
    python examples/secure_aggregation_demo.py
"""

import numpy as np

from repro.harness import print_table
from repro.secagg import (
    BoundaryCostModel,
    SecAggClient,
    build_deployment,
    run_secure_aggregation,
)
from repro.secagg.threat import flip_sealed_ciphertext_bit
from repro.utils import child_rng


def main() -> None:
    rng = child_rng(42, "secagg-demo")
    n_clients, dim = 8, 1024
    updates = [rng.uniform(-1, 1, dim) for _ in range(n_clients)]

    print(f"Securely aggregating {n_clients} model updates of {dim} floats ...")
    aggregate, dep = run_secure_aggregation(updates, threshold=n_clients, seed=42)
    err = float(np.abs(aggregate - np.sum(updates, axis=0)).max())

    masked = dep.server.accepted_submissions[0].masked_update
    print_table(
        ["check", "result"],
        [
            ["aggregate max abs error (fixed point)", f"{err:.2e}"],
            ["server saw plaintext updates?", "no — only masked group vectors"],
            ["first masked word (looks like noise)", hex(int(masked[0]))],
            ["TEE boundary bytes in (seeds etc.)", dep.tsa.boundary_bytes_in],
            ["TEE boundary bytes out (unmask)", dep.tsa.boundary_bytes_out],
            [f"naive TEE would have moved", f"{n_clients * dim * 4} bytes in"],
        ],
        title="protocol transcript",
    )

    # --- tamper with a sealed seed: the TSA must reject it ---
    dep2 = build_deployment(vector_length=dim, threshold=1, seed=43)
    client = SecAggClient(
        0, dep2.codec, dep2.authority, dep2.tsa.binary_hash,
        dep2.tsa.params_hash, child_rng(43, "client"),
    )
    sub = client.participate(updates[0], dep2.server.assign_leg(),
                             log_bundle=dep2.log_bundle)
    accepted = dep2.server.submit(flip_sealed_ciphertext_bit(sub))
    print(f"tampered sealed seed accepted by TSA? {accepted}  (must be False)")

    # --- the Figure 6 cost model at the paper's operating points ---
    m = BoundaryCostModel()
    mb20 = 20 * 1024 * 1024
    print_table(
        ["K", "naive TSA (ms)", "AsyncSecAgg (ms)"],
        [[k, round(m.naive_transfer_ms(k, mb20), 1),
          round(m.async_transfer_ms(k, mb20), 2)] for k in (10, 100, 1000)],
        title="host<->TEE transfer time, 20MB model (paper Figure 6)",
    )


if __name__ == "__main__":
    main()
