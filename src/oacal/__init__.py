"""Output-adaptive weight quantization engine with desk-scale verification.

Modules by responsibility:

* linalg, archive  - float64 Cholesky kernels and the bit-exact tensor format
* hessian          - batched agnostic and adaptive curvature sums
* quant            - affine, double-quantized, and binary weight codecs
* calibrate        - one column sweep for every backend, outlier isolation
* tinylm           - toy byte-level transformer with manual backprop over
                     stacked (B, T) windows, and the one-pass whole-model
                     Hessian collectors
* pipeline, cli    - end-to-end runs, alpha sweeps and reports
* errors           - typed errors behind the CLI exit codes
"""

__version__ = "0.1.0"
