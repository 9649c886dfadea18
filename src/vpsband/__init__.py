"""Available-bandwidth estimation from delays of two probe packet sizes.

The toolkit covers the full workflow: parse test-box delay logs or
probe a live path over UDP, pair samples of the two sizes, estimate
the available bandwidth from the delay difference, simulate the delay
process to predict estimation error, and plan how many measurements a
target accuracy needs.

The top level imports nothing, so importing one module loads only what
that module uses; each name is imported from its module
(``vpsband.testbox``, ``vpsband.estimator``, ``vpsband.model``, ...).
"""

__version__ = "0.1.0"
