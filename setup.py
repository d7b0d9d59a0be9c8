from setuptools import Extension, setup

# The trajectory kernel and the exact table's binomial averaging are the
# hand-written C file below; a C compiler and the Python headers are all the
# build needs.
setup(
    ext_modules=[
        Extension(
            "belldistil._trajectory_c",
            ["src/belldistil/_trajectory_c.c"],
            # no FMA contraction: the averaging must round like the numpy loop
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ]
)
