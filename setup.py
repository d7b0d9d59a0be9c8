from setuptools import Extension, setup

# The trajectory kernel is the hand-written C file below; a C compiler and
# the Python headers are all the build needs.
setup(
    ext_modules=[
        Extension(
            "belldistil._trajectory_c",
            ["src/belldistil/_trajectory_c.c"],
            extra_compile_args=["-O3"],
        )
    ]
)
