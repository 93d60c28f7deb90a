"""Power iteration on a compressed matrix (the paper's Eq. 4 workload).

Run with::

    python examples/power_iteration.py

The paper's benchmark loop — ``y = Mx;  zᵗ = yᵗM;  x = z/‖z‖∞`` — is
the power method on ``MᵗM``: it converges to the top right-singular
vector of ``M``.  This example runs it through the solver layer
(:func:`repro.solve` — convergence-driven, with a per-iteration
residual/latency trace) on a multithreaded blocked compressed matrix,
entirely in the compressed domain, and checks the result against
numpy's SVD.
"""

import numpy as np

import repro
from repro.bench.memory import peak_mvm_pct
from repro.serve.executor import BlockExecutor


def main() -> None:
    dataset = repro.get_dataset("airline78", n_rows=3000)
    matrix = np.asarray(dataset.matrix)
    print(f"dataset: {dataset.name} {matrix.shape}")

    # Compress into 8 row blocks (Section 4.1) for parallel
    # multiplication — one registry call, any registered format works.
    compressed = repro.compress(matrix, format="blocked", variant="re_iv", n_blocks=8)
    print(
        f"compressed to {compressed.size_bytes():,} bytes "
        f"({100 * compressed.size_bytes() / (matrix.size * 8):.1f}% of dense), "
        f"{compressed.n_blocks} blocks"
    )

    # Run the Eq. (4) iteration to convergence.  ``repro.solve`` drives
    # any registered algorithm over any format; `power` is this loop.
    # One 8-worker pool runs the blocks in parallel for every iteration.
    with BlockExecutor(8) as executor:
        result = repro.solve(
            compressed, algorithm="power", iterations=200, tol=1e-12,
            executor=executor,
        )
    latency = result.trace.latency_summary()
    print(
        f"converged={result.converged} after {result.iterations} iterations "
        f"(residual {result.residual:.2e}), p50 {latency['p50_ms']:.2f} ms/iter, "
        f"modelled peak memory {peak_mvm_pct(compressed, threads=8):.1f}% of dense"
    )

    # The iterate converges to the top right-singular vector of M.
    x = result.x / np.linalg.norm(result.x)
    _, singular_values, vt = np.linalg.svd(matrix, full_matrices=False)
    top = vt[0] / np.linalg.norm(vt[0])
    alignment = abs(float(x @ top))
    print(f"alignment with numpy's top singular vector: {alignment:.6f}")
    assert alignment > 0.999, "power iteration failed to converge"
    print(f"top singular value (reference): {singular_values[0]:.4f}")
    print(
        f"top singular value (compressed-domain estimate): "
        f"{result.extras['singular_value']:.4f}"
    )
    print("converged to the dominant singular direction  ✓")


if __name__ == "__main__":
    main()
