from setuptools import setup, find_packages

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Central moment analysis for cost accumulators in probabilistic "
        "programs (PLDI 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy>=1.15"],
)
