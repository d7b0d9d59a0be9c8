from setuptools import Extension, setup

# The trajectory kernel and the exact expectation's backward induction are
# the hand-written C file below; a C compiler and the Python headers are all
# the build needs.  With GCC 12 or later on x86-64, the C file also builds
# AVX-512 (x86-64-v4) functions for the Philox and the averaging loop beside
# the baseline code, and one CPU check at module load picks them: no flag
# here selects them.  Both averaging functions start on a 64-byte line, so
# edits elsewhere in the file do not move them.  -ffp-contract=off keeps
# the baseline loop from fusing a multiply and an add, the AVX-512 loop
# uses no FMA, and a vector multiply or add rounds each lane as the scalar
# one does, so the bits are the same.
setup(
    ext_modules=[
        Extension(
            "belldistil._trajectory_c",
            ["src/belldistil/_trajectory_c.c"],
            # no FMA contraction: the averaging must round like the numpy loop
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ],
)
