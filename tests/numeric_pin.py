"""Pin the floating-point code paths numpy and OpenBLAS pick, for the byte gates.

OpenBLAS picks its dot, gemv and gemm kernels per CPU, and numpy sends pow,
exp and log to AVX-512 code when the CPU has it; each choice rounds last bits
its own way. matrix_reference.json and the telemetry digests in
test_harness.py are recorded at the AVX2 level (OpenBLAS's Haswell kernels,
numpy without its AVX-512 targets), which any x86-64 CPU with AVX2 runs the
same way. Import this module before numpy: tests/conftest.py and
tests/record_matrix.py do. A variable the environment already sets wins, so
the pin can be overridden, and then the byte gates are expected to fail.
"""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")
os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL,AVX512_SPR")
