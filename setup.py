from setuptools import Extension, setup

# The trajectory kernel and the exact expectation's backward induction are
# the hand-written C file below; a C compiler and the Python headers are all
# the build needs.  With GCC 12 or later on x86-64, the C file also builds an
# AVX-512 (x86-64-v4) clone of the averaging loop beside the baseline one,
# and the loader picks one from the CPU at load time: no flag here selects
# it.  Both clones start on a 64-byte line, so edits elsewhere in the file
# do not move them.  -ffp-contract=off holds for both clones, and a vector
# multiply or add rounds each lane as the scalar one does, so the bits are
# the same.
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
