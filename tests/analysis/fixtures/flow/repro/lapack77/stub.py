"""Substrate stub for the interprocedural flow fixtures.

The path puts this module inside a ``lapack77`` package, so lalint
treats it as substrate: these ``def`` signatures supply the kernel
parameter order that :func:`repro.analysis.flow.summaries.
kernel_effects` matches against the spec intents, and a subscript
store in a body (``gesvd``'s ``superdiag``) marks a slot the kernel
writes.  The bodies are never executed (lalint never imports analysed
code).
"""


def gesv(a, b):
    raise NotImplementedError


def getrf(a):
    raise NotImplementedError


def getrs(a, piv, b, trans="N"):
    raise NotImplementedError


def lagge(a, kl=None, ku=None, d=None, iseed=None):
    raise NotImplementedError


def gesvd(a, jobu="N", jobvt="N", superdiag=None):
    if superdiag is not None:
        superdiag[:] = 0
    raise NotImplementedError
