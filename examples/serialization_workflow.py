"""Compress once, store, reload, multiply — the storage workflow.

Run with::

    python examples/serialization_workflow.py

One advantage the paper claims over CLA-in-SystemDS is that the
compressed matrix is a storable artefact (SystemDS recompresses on
every execution).  This example compresses a matrix with per-block
reordering, saves it to disk, reloads it in a "fresh process" role and
serves multiplications from the loaded blob.
"""

import os
import tempfile

import numpy as np

from repro import get_dataset, load_matrix, save_matrix
from repro.reorder import compress_with_reordering
from repro.serve.executor import BlockExecutor


def main() -> None:
    dataset = get_dataset("airline78", n_rows=2500)
    matrix = np.asarray(dataset.matrix)
    dense_bytes = matrix.size * 8

    # Producer: compress with the full pipeline and persist.
    result = compress_with_reordering(matrix, variant="re_ans", n_blocks=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{dataset.name}.gcmx")
        save_matrix(result.matrix, path)
        file_bytes = os.path.getsize(path)
        print(
            f"stored {dataset.name} {matrix.shape}: {file_bytes:,} bytes on disk "
            f"({100 * file_bytes / dense_bytes:.1f}% of dense), "
            f"reordering winner = {result.method}"
        )

        # Consumer: reload and serve queries without the original data.
        loaded = load_matrix(path)
        rng = np.random.default_rng(7)
        with BlockExecutor(4) as executor:
            for i in range(3):
                x = rng.standard_normal(matrix.shape[1])
                y = loaded.right_multiply(x, executor=executor)
                assert np.allclose(y, matrix @ x)
                print(f"query {i + 1}: served y = Mx from the loaded blob  ✓")

        assert np.array_equal(loaded.to_dense(), matrix)
        print("loaded matrix is bit-identical to the original     ✓")


if __name__ == "__main__":
    main()
