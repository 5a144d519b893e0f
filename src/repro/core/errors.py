"""Tool-level input validation (paper section IV-A)."""

from __future__ import annotations

from ..diagnostics import Diagnostic, Severity
from ..frontend import ast_nodes as A


def data_management_diagnostic(node: A.OMPExecutableDirective) -> Diagnostic:
    """The constraint-violation diagnostic for one offending directive
    (emitted by the single-walk scan of :mod:`repro.analysis.fused`)."""
    loc = node.range.begin
    return Diagnostic(
        Severity.ERROR,
        f"input already contains a '{node.directive_kind}' "
        "directive; OMPDart expects code without target data "
        "or target update constructs (paper section IV-A)",
        filename=loc.filename,
        line=loc.line,
        column=loc.column,
    )


def check_input_constraints(tu: A.TranslationUnit) -> list[Diagnostic]:
    """Validate OMPDart's input contract.

    "The expected input is valid C/C++ source code with OpenMP
    offloading directives.  This code should not include any instances
    of target data or target update directives."
    """
    from ..analysis.fused import fused_scan

    return fused_scan(tu).constraint_diagnostics


def has_offload_kernels(tu: A.TranslationUnit) -> bool:
    return any(A.is_offload_kernel(n) for n in tu.walk())
