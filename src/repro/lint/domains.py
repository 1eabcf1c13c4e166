"""Address-domain analysis: LA / IA / PA typing of address values.

Every address in this codebase lives in exactly one of three domains:

* **LA** — logical address, what the workload and the attacker see
  (``MemoryController.write(la, ...)``, trace entries);
* **IA** — intermediate address, the output of a randomization stage
  (RBSG's ``randomize``, Security RBSG's outer dynamic-Feistel
  mapper) and the input of the physical-placement stage;
* **PA** — physical address, what indexes ``PCMArray`` storage and
  the wear map.

The paper's whole mechanism is the LA→IA→PA pipeline, so confusing
the domains is the characteristic bug class of this repo: indexing a
wear array with an LA, translating an already-translated PA again,
handing an IA to ``write_many``.  All three produce in-range integers
and fail silently.

This module extracts **domain signatures** from scheme shape (every
:class:`~repro.wearlevel.base.WearLeveler` subclass gets
``translate(la) -> pa``, ``record_write(la)``, ...; mapper classes
mint IA; region-layer stage helpers like ``_outer_ia``/``_phys_of_ia``
carry their stage's domains), types values through a per-function
abstract environment (parameters and attributes named ``la``/``ia``/
``pa`` seed their domain; calls return their signature's domain;
arithmetic drops it), propagates return domains project-wide through
the PR-7 interprocedural summary machinery, and enforces the
discipline with two rules:

* **REP304 address-domain-confusion** — cross-domain argument flows,
  LA/IA/PA values mixed in one arithmetic expression, and wear/
  endurance arrays indexed by a non-PA;
* **REP306 batched-contract-drift** — a scheme overriding scalar
  ``translate`` without ``translate_many`` (the inherited batched
  path silently computes the *old* mapping), or whose batched methods
  touch RNG state the scalar path does not (batched vs scalar replay
  diverges).

See ``docs/lint.md`` ("The array rules") for the full domain table.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    FunctionInfo,
    LintProject,
    ModuleTable,
    expand_dotted,
    local_imports,
)
from repro.lint.diagnostics import Diagnostic, FlowRule, register
from repro.lint.rules import dotted_name
from repro.lint.summaries import SummaryTable, project_summaries, walk_own

__all__ = [
    "LA", "IA", "PA", "DomainSig", "DomainIndex", "domain_index",
    "AddressDomainConfusion", "BatchedContractDrift",
]

LA = "LA"
IA = "IA"
PA = "PA"

#: ``la``/``las``/``wear_pas``/``ia0``... — the naming convention that
#: seeds parameter and attribute domains.
_ADDR_NAME = re.compile(r"(?:^|_)(la|ia|pa)s?\d*$")

#: Wear-state arrays that must be indexed by PA only.
_WEAR_ARRAY = re.compile(r"wear|endurance")


@dataclass(frozen=True)
class DomainSig:
    """Domain signature of one method: positional parameter domains
    (``self`` excluded) and the return domain."""

    params: Tuple[Optional[str], ...]
    returns: Optional[str]


_LA_IN_PA_OUT = DomainSig((LA,), PA)
_LA_IN = DomainSig((LA,), None)

#: Methods every WearLeveler (and subclass) exposes.
_SCHEME_SIGS: Dict[str, DomainSig] = {
    "translate": _LA_IN_PA_OUT,
    "translate_many": _LA_IN_PA_OUT,
    "record_write": _LA_IN,
    "record_writes_many": _LA_IN,
    "writes_until_next_remap": _LA_IN,
    "consume_chunk": _LA_IN_PA_OUT,  # returns (pas, n); see unpacking
}

#: Region-layer stage helpers, matched by name on scheme receivers:
#: the outer-stage hooks of ``RegionPartitionedScheme`` (``_outer_ia``
#: / ``_outer_ias``), RBSG's ``randomize``, the shared placement
#: ``_phys_of_ia(s)``...  These are where IA is minted and consumed.
_STAGE_SIGS: Dict[str, DomainSig] = {
    "_outer_ia": DomainSig((LA,), IA),
    "_outer_ias": DomainSig((LA,), IA),
    "randomize": DomainSig((LA,), IA),
    "randomize_many": DomainSig((LA,), IA),
    "derandomize": DomainSig((IA,), LA),
    "region_of": DomainSig((IA,), None),
    "subregion_of": DomainSig((IA,), None),
    "subregion_of_la": DomainSig((LA,), None),
    "_phys_of_ia": DomainSig((IA,), PA),
    "_phys_of_ias": DomainSig((IA,), PA),
}

#: Outer randomization mappers (LA -> IA minting stage).
_MAPPER_SIGS: Dict[str, DomainSig] = {
    "translate": DomainSig((LA,), IA),
    "translate_many": DomainSig((LA,), IA),
    "encrypt": DomainSig((LA,), IA),
    "decrypt": DomainSig((IA,), LA),
}

#: Physical storage: every address argument is a PA.
_PCM_SIGS: Dict[str, DomainSig] = {
    "write": DomainSig((PA, None), None),
    "write_many": DomainSig((PA, None), None),
    "read": DomainSig((PA,), None),
    "read_with_latency": DomainSig((PA,), None),
    "bulk_wear": DomainSig((PA,), None),
    "mark_stuck": DomainSig((PA,), None),
}

#: The memory controller fronts the scheme: it *consumes* LAs.
_CONTROLLER_SIGS: Dict[str, DomainSig] = {
    "write": DomainSig((LA, None), None),
    "read": DomainSig((LA,), None),
    "write_chunk": DomainSig((LA, None), None),
}

_KIND_SIGS: Dict[str, Dict[str, DomainSig]] = {
    "scheme": {**_SCHEME_SIGS, **_STAGE_SIGS},
    "mapper": _MAPPER_SIGS,
    "pcm": _PCM_SIGS,
    "controller": _CONTROLLER_SIGS,
}

_MAPPER_CLASS = re.compile(r"(Mapper|Feistel\w*|Randomizer)$")

#: Receiver-variable spellings accepted when no class can be resolved.
_RECEIVER_HINTS: Dict[str, str] = {
    "scheme": "scheme", "wl": "scheme", "leveler": "scheme",
    "wear_leveler": "scheme",
    "mapper": "mapper", "outer": "mapper", "randomizer": "mapper",
    "pcm": "pcm",
    "controller": "controller", "mc": "controller",
}

#: numpy / builtin calls whose result keeps the first argument's domain.
_DOMAIN_PASSTHROUGH = frozenset({
    "asarray", "ascontiguousarray", "array", "sort", "unique", "copy",
    "int", "int64", "intp",
})


def name_domain(name: str) -> Optional[str]:
    """Domain implied by an identifier (``las`` -> LA, ``wear_pas`` ->
    PA, anything else None)."""
    match = _ADDR_NAME.search(name.lower())
    if match is None:
        return None
    return match.group(1).upper()


class DomainIndex:
    """Project-wide class/signature index for the address domains."""

    def __init__(self, project: LintProject) -> None:
        self.project = project
        #: fq class name -> (table, bare name)
        self.classes: Dict[str, Tuple[ModuleTable, str]] = {}
        for modname in sorted(project.tables):
            table = project.tables[modname]
            for cls in table.class_bases:
                self.classes[f"{modname}.{cls}"] = (table, cls)
        self._kind_cache: Dict[str, Optional[str]] = {}

    # -- class classification ----------------------------------------

    def class_kind(self, dotted: str) -> Optional[str]:
        """Kind of a class reference: scheme / mapper / pcm /
        controller, else None.  Accepts fq names, imported names and
        bare leaves; unknown classes are untyped."""
        leaf = dotted.split(".")[-1]
        if leaf == "WearLeveler":
            return "scheme"
        if leaf == "PCMArray":
            return "pcm"
        if leaf == "MemoryController":
            return "controller"
        fq = self._resolve_class(dotted)
        if fq is not None:
            if self._is_wear_leveler(fq):
                return "scheme"
            if _MAPPER_CLASS.search(fq.split(".")[-1]):
                return "mapper"
            return None
        if _MAPPER_CLASS.search(leaf):
            return "mapper"
        return None

    def _resolve_class(self, dotted: str) -> Optional[str]:
        if dotted in self.classes:
            return dotted
        # An imported/bare spelling: unique leaf match across the
        # project (schemes have distinctive names; ambiguity -> None).
        leaf = dotted.split(".")[-1]
        hits = [fq for fq in self.classes if fq.split(".")[-1] == leaf]
        if len(hits) == 1:
            return hits[0]
        return None

    def _is_wear_leveler(self, fq: str, _depth: int = 0) -> bool:
        if _depth > 8:
            return False
        cached = self._kind_cache.get(fq)
        if cached is not None:
            return cached == "scheme"
        entry = self.classes.get(fq)
        if entry is None:
            return False
        table, cls = entry
        verdict = False
        for base in table.class_bases.get(cls, []):
            expanded = expand_dotted(table, base)
            if expanded.split(".")[-1] == "WearLeveler":
                verdict = True
                break
            base_fq = self._resolve_class(expanded)
            if base_fq is not None and self._is_wear_leveler(
                    base_fq, _depth + 1):
                verdict = True
                break
        self._kind_cache[fq] = "scheme" if verdict else "other"
        return verdict

    def scheme_classes(self) -> List[Tuple[ModuleTable, str]]:
        """Every WearLeveler subclass in the project (base excluded)."""
        out: List[Tuple[ModuleTable, str]] = []
        for fq in sorted(self.classes):
            table, cls = self.classes[fq]
            if cls != "WearLeveler" and self._is_wear_leveler(fq):
                out.append((table, cls))
        return out

    def sigs_for_kind(self, kind: Optional[str]) -> Dict[str, DomainSig]:
        if kind is None:
            return {}
        return _KIND_SIGS.get(kind, {})


def domain_index(project: LintProject) -> DomainIndex:
    cached = project.domain_summary_cache
    if isinstance(cached, DomainIndex):
        return cached
    built = DomainIndex(project)
    project.domain_summary_cache = built
    return built


class _DomainScope:
    """Per-function domain environment and expression typing."""

    def __init__(
        self,
        index: DomainIndex,
        table: ModuleTable,
        info: FunctionInfo,
        summaries: Optional[SummaryTable],
        returns: Optional[Dict[str, Optional[str]]],
    ) -> None:
        self.index = index
        self.table = table
        self.info = info
        self.summaries = summaries
        self.returns = returns if returns is not None else {}
        self.extra = local_imports(info.node)
        #: variable / ``self.attr`` -> domain
        self.env: Dict[str, Optional[str]] = {}
        #: variable -> dotted class (from annotations / constructors)
        self.var_class: Dict[str, str] = {}
        self._seed_params()
        self._fixpoint()

    # -- seeding and fixpoint ----------------------------------------

    def _seed_params(self) -> None:
        args = getattr(self.info.node, "args", None)
        if args is None:
            return
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            domain = name_domain(arg.arg)
            if domain is not None:
                self.env[arg.arg] = domain
            if arg.annotation is not None:
                ann = dotted_name(arg.annotation)
                if ann is not None and ann.split(".")[-1][:1].isupper():
                    self.var_class[arg.arg] = expand_dotted(
                        self.table, ann, self.extra
                    )

    def _fixpoint(self) -> None:
        for _ in range(4):
            changed = False
            for node in walk_own(self.info.node):
                for key, domain in self._bindings(node):
                    if self.env.get(key, "∅") != domain:
                        # A rebinding to a different domain widens to
                        # None rather than oscillating.
                        if key in self.env and self.env[key] != domain:
                            domain = None
                        self.env[key] = domain
                        changed = True
            if not changed:
                break

    def _bindings(
        self, node: ast.AST
    ) -> List[Tuple[str, Optional[str]]]:
        out: List[Tuple[str, Optional[str]]] = []
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            self._track_class(target, node.value)
            if isinstance(target, ast.Tuple):
                out.extend(self._tuple_bindings(target, node.value))
            else:
                key = self._key(target)
                if key is not None:
                    out.append((key, self.eval(node.value)))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            key = self._key(node.target)
            if key is not None:
                out.append((key, self.eval(node.value)))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            key = self._key(node.target)
            if key is not None:
                # ``for la in las``: elements carry the array's domain.
                out.append((key, self.eval(node.iter)))
        return out

    def _tuple_bindings(
        self, target: ast.Tuple, value: ast.expr
    ) -> List[Tuple[str, Optional[str]]]:
        out: List[Tuple[str, Optional[str]]] = []
        if isinstance(value, ast.Call):
            sig = self.sig_for_call(value)
            if sig is not None and sig[0] is _LA_IN_PA_OUT:
                # ``pas, n = scheme.consume_chunk(las)``
                keys = [self._key(el) for el in target.elts]
                if keys and keys[0] is not None:
                    out.append((keys[0], sig[0].returns))
                for key in keys[1:]:
                    if key is not None:
                        out.append((key, None))
                return out
        if isinstance(value, ast.Tuple) and len(value.elts) == len(
                target.elts):
            for el, val in zip(target.elts, value.elts):
                key = self._key(el)
                if key is not None:
                    out.append((key, self.eval(val)))
            return out
        for el in target.elts:
            key = self._key(el)
            if key is not None:
                out.append((key, None))
        return out

    def _track_class(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if not isinstance(value, ast.Call):
            return
        dotted = dotted_name(value.func)
        if dotted is None or not dotted.split(".")[-1][:1].isupper():
            return
        self.var_class[target.id] = expand_dotted(
            self.table, dotted, self.extra
        )

    @staticmethod
    def _key(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return dotted_name(node)
        return None

    # -- typing --------------------------------------------------------

    def eval(self, node: ast.expr) -> Optional[str]:
        """Domain of one expression, or None when unknown/mixed."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            key = dotted_name(node)
            if key is not None and key in self.env:
                return self.env[key]
            return name_domain(node.attr)
        if isinstance(node, ast.Subscript):
            # ``las[i]`` / ``las[mask]`` / ``las[:n]`` stay LAs.
            return self.eval(node.value)
        if isinstance(node, ast.Call):
            return self._call_domain(node)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.IfExp):
            body = self.eval(node.body)
            orelse = self.eval(node.orelse)
            return body if body == orelse else None
        return None

    def _call_domain(self, call: ast.Call) -> Optional[str]:
        dotted = dotted_name(call.func)
        if dotted is not None and call.args:
            leaf = dotted.split(".")[-1]
            if leaf in _DOMAIN_PASSTHROUGH:
                return self.eval(call.args[0])
        sig = self.sig_for_call(call)
        if sig is not None:
            return sig[0].returns
        resolved = self._resolve(call)
        if resolved is not None:
            domain = self.returns.get(resolved.fq)
            if domain is not None:
                return domain
            if self.summaries is not None:
                summary = self.summaries.for_function(resolved)
                if summary is not None and summary.passthrough:
                    offset = 1 if resolved.class_name is not None else 0
                    for p in summary.passthrough:
                        pos = p - offset
                        if 0 <= pos < len(call.args):
                            return self.eval(call.args[pos])
        return None

    def _resolve(self, call: ast.Call) -> Optional[FunctionInfo]:
        return self.index.project.resolve_call(
            self.table, call, self.extra, self.info.class_name
        )

    # -- signatures ----------------------------------------------------

    def receiver_kind(self, recv: ast.expr) -> Optional[str]:
        """Classify the receiver of a method call."""
        if isinstance(recv, ast.Subscript):
            # ``self.regions[r].translate(...)``: element type.
            return self.receiver_kind(recv.value)
        if isinstance(recv, ast.Name):
            if recv.id in ("self", "cls"):
                cls = self.info.class_name
                if cls is None:
                    return None
                return self.index.class_kind(
                    f"{self.table.modname}.{cls}"
                )
            cls_dotted = self.var_class.get(recv.id)
            if cls_dotted is not None:
                kind = self.index.class_kind(cls_dotted)
                if kind is not None:
                    return kind
            return _RECEIVER_HINTS.get(recv.id.lower())
        if isinstance(recv, ast.Attribute):
            if (isinstance(recv.value, ast.Name)
                    and recv.value.id in ("self", "cls")
                    and self.info.class_name is not None):
                ann = self.table.attr_types.get(
                    self.info.class_name, {}
                ).get(recv.attr)
                if ann is not None:
                    expanded = expand_dotted(self.table, ann, self.extra)
                    kind = self.index.class_kind(expanded)
                    if kind is not None:
                        return kind
            return _RECEIVER_HINTS.get(recv.attr.lower())
        return None

    def sig_for_call(
        self, call: ast.Call
    ) -> Optional[Tuple[DomainSig, str]]:
        """Domain signature of a method call, with a shown name."""
        if not isinstance(call.func, ast.Attribute):
            return None
        method = call.func.attr
        kind = self.receiver_kind(call.func.value)
        sig = self.index.sigs_for_kind(kind).get(method)
        if sig is None:
            return None
        shown = dotted_name(call.func) or method
        return self._refine_params(call, sig), f"{shown}()"

    def _refine_params(self, call: ast.Call, sig: DomainSig) -> DomainSig:
        """A concrete callee's own parameter names win over the generic
        kind table: ``MultiWaySR.subregion_of(la)`` takes an LA even
        though the RBSG-family stage helper of that name consumes an
        IA.  When the names agree with the table (or declare nothing)
        the table signature is returned unchanged, preserving identity
        for the ``consume_chunk`` unpacking special case."""
        resolved = self._resolve(call)
        if resolved is None:
            return sig
        args = getattr(resolved.node, "args", None)
        if args is None:
            return sig
        params = [a.arg for a in args.posonlyargs + args.args]
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        domains = tuple(name_domain(p) for p in params)
        if not any(domains) or domains[: len(sig.params)] == sig.params:
            return sig
        return DomainSig(domains, sig.returns)

    def expected_param_domains(
        self, call: ast.Call
    ) -> Optional[Tuple[Tuple[Optional[str], ...], str]]:
        """Expected positional-argument domains of one call.

        Receiver signatures win; otherwise a resolved project callee
        contributes expectations from its *parameter names* (``def
        helper(pa): ...`` expects a PA first argument) — this is what
        makes the check project-wide rather than schema-limited.
        """
        sig = self.sig_for_call(call)
        if sig is not None:
            return sig[0].params, sig[1]
        resolved = self._resolve(call)
        if resolved is None:
            return None
        args = getattr(resolved.node, "args", None)
        if args is None:
            return None
        params = [a.arg for a in args.posonlyargs + args.args]
        if params and params[0] in ("self", "cls"):
            is_method_call = isinstance(call.func, ast.Attribute)
            if is_method_call or resolved.class_name is not None:
                params = params[1:]
        domains = tuple(name_domain(p) for p in params)
        if not any(domains):
            return None
        return domains, f"{resolved.qualname}()"


def _domain_returns(
    project: LintProject, index: DomainIndex
) -> Dict[str, Optional[str]]:
    """Return-domain summaries: seeded from class signatures, then a
    bounded fixpoint over every project function's return expressions
    (a helper that returns ``self.translate(la)`` returns PA)."""
    returns: Dict[str, Optional[str]] = {}
    for fq in sorted(index.classes):
        table, cls = index.classes[fq]
        kind = index.class_kind(fq)
        for method, sig in index.sigs_for_kind(kind).items():
            if f"{cls}.{method}" in table.functions:
                returns[f"{fq}.{method}"] = sig.returns
    summaries = project_summaries(project)
    infos: List[Tuple[ModuleTable, FunctionInfo]] = []
    for modname in sorted(project.tables):
        table = project.tables[modname]
        for qual in sorted(table.functions):
            infos.append((table, table.functions[qual]))
    for _ in range(3):
        changed = False
        for table, info in infos:
            if info.fq in returns and returns[info.fq] is not None:
                continue  # signature-seeded
            scope = _DomainScope(index, table, info, summaries, returns)
            domain: Optional[str] = None
            consistent = True
            for node in walk_own(info.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    found = scope.eval(node.value)
                    if domain is None:
                        domain = found
                    elif found != domain:
                        consistent = False
            value = domain if consistent else None
            if returns.get(info.fq, "∅") != value:
                returns[info.fq] = value
                changed = True
        if not changed:
            break
    return returns


@register
class AddressDomainConfusion(FlowRule):
    """LA, IA and PA values must not cross domains.

    Flags three flows: an argument whose domain contradicts the
    callee's signature (the classic double translation —
    ``translate(translate(la))`` feeds a PA where an LA is expected),
    distinct domains mixed in one arithmetic/comparison expression,
    and a wear/endurance array indexed by an LA or IA.  Domains come
    from scheme signatures and the ``la``/``ia``/``pa`` naming
    convention; values with no known domain are never flagged.
    """

    code = "REP304"
    name = "address-domain-confusion"

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        assert isinstance(project, LintProject)
        index = domain_index(project)
        summaries = project_summaries(project)
        returns = _domain_returns(project, index)
        for modname in sorted(project.tables):
            table = project.tables[modname]
            infos = sorted(
                table.functions.values(),
                key=lambda i: (getattr(i.node, "lineno", 0), i.qualname),
            )
            for info in infos:
                scope = _DomainScope(index, table, info, summaries, returns)
                yield from self._check_scope(scope, info)

    def _check_scope(
        self, scope: _DomainScope, info: FunctionInfo
    ) -> Iterator[Diagnostic]:
        for node in walk_own(info.node):
            if isinstance(node, ast.Call):
                yield from self._check_call(scope, info, node)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(scope, info, node)
            elif isinstance(node, (ast.BinOp, ast.Compare)):
                yield from self._check_mix(scope, info, node)

    def _check_call(
        self, scope: _DomainScope, info: FunctionInfo, call: ast.Call
    ) -> Iterator[Diagnostic]:
        expected = scope.expected_param_domains(call)
        if expected is None:
            return
        domains, shown = expected
        for pos, arg in enumerate(call.args):
            if pos >= len(domains) or isinstance(arg, ast.Starred):
                continue
            want = domains[pos]
            if want is None:
                continue
            got = scope.eval(arg)
            if got is None or got == want:
                continue
            if got == PA and want == LA:
                detail = (
                    "already-translated PA fed back into an LA "
                    "consumer (double translation)"
                )
            else:
                detail = f"{got}-domain value where {want} is expected"
            yield self.diagnostic(
                info.module, arg,
                f"argument {pos + 1} of {shown}: {detail}",
            )

    def _check_subscript(
        self, scope: _DomainScope, info: FunctionInfo, node: ast.Subscript
    ) -> Iterator[Diagnostic]:
        base_key = scope._key(node.value)
        if base_key is None:
            return
        if not _WEAR_ARRAY.search(base_key.split(".")[-1].lower()):
            return
        if isinstance(node.slice, ast.Slice):
            return
        got = scope.eval(node.slice)
        if got in (LA, IA):
            yield self.diagnostic(
                info.module, node,
                f"wear state '{base_key}' indexed by a {got}-domain "
                "address; wear is physical — translate to a PA first",
            )

    def _check_mix(
        self, scope: _DomainScope, info: FunctionInfo, node: ast.AST
    ) -> Iterator[Diagnostic]:
        pairs: List[Tuple[ast.expr, ast.expr]] = []
        if isinstance(node, ast.BinOp):
            pairs.append((node.left, node.right))
        elif isinstance(node, ast.Compare):
            prev = node.left
            for comparator in node.comparators:
                pairs.append((prev, comparator))
                prev = comparator
        for left, right in pairs:
            got_l = scope.eval(left)
            got_r = scope.eval(right)
            if got_l is not None and got_r is not None and got_l != got_r:
                yield self.diagnostic(
                    info.module, node,
                    f"{got_l}-domain and {got_r}-domain addresses mixed "
                    "in one expression; translate into a single domain "
                    "first",
                )


#: Batched entry points vs their scalar counterparts (REP306).
_BATCHED_METHODS = frozenset({
    "translate_many", "record_writes_many", "consume_chunk",
    "writes_until_next_remap", "round_wear_profile", "apply_round",
})
_SCALAR_METHODS = frozenset({"translate", "record_write"})

_RNG_CALL_LEAVES = frozenset({
    "integers", "random", "choice", "shuffle", "permutation", "normal",
    "standard_normal", "bytes",
})


@register
class BatchedContractDrift(FlowRule):
    """Batched scheme methods must stay bit-identical to the scalar
    path.

    Two drift shapes: overriding ``translate`` without
    ``translate_many`` leaves the batched path computing a *different*
    mapping (either the base-class fallback loop — slow but correct —
    or, worse, an inherited vectorized implementation of the old
    mapping); and a batched method that reads RNG state the scalar
    path never touches makes chunked replay diverge from entry-wise
    replay, breaking the engine's batched==scalar equivalence gate.
    """

    code = "REP306"
    name = "batched-contract-drift"

    def check_project(self, project: object) -> Iterator[Diagnostic]:
        assert isinstance(project, LintProject)
        index = domain_index(project)
        for table, cls in index.scheme_classes():
            own = {
                qual.split(".", 1)[1]: info
                for qual, info in table.functions.items()
                if qual.startswith(f"{cls}.")
            }
            if "translate" in own and "translate_many" not in own:
                yield self.diagnostic(
                    table.module, own["translate"].node,
                    f"{cls} overrides translate() without "
                    "translate_many(); the batched path no longer "
                    "matches the scalar mapping — override both",
                )
            yield from self._check_rng_drift(table, cls, own)

    def _check_rng_drift(
        self,
        table: ModuleTable,
        cls: str,
        own: Dict[str, FunctionInfo],
    ) -> Iterator[Diagnostic]:
        scalar = self._closure_touches(own, _SCALAR_METHODS)
        for method in sorted(_BATCHED_METHODS):
            if method not in own:
                continue
            batched = self._closure_touches(own, {method})
            drift = sorted(batched - scalar)
            if drift:
                shown = ", ".join(drift)
                yield self.diagnostic(
                    table.module, own[method].node,
                    f"{cls}.{method}() touches RNG state the scalar "
                    f"path does not ({shown}); batched and entry-wise "
                    "replay will diverge",
                )

    def _closure_touches(
        self, own: Dict[str, FunctionInfo], roots: Set[str]
    ) -> Set[str]:
        """RNG touches reachable from ``roots`` via self-calls."""
        seen: Set[str] = set()
        queue = [m for m in sorted(roots) if m in own]
        touches: Set[str] = set()
        while queue:
            method = queue.pop(0)
            if method in seen:
                continue
            seen.add(method)
            fn = own[method].node
            for node in walk_own(fn):
                if isinstance(node, ast.Attribute):
                    if (isinstance(node.value, ast.Name)
                            and node.value.id == "self"
                            and "rng" in node.attr.lower()):
                        touches.add(f"self.{node.attr}")
                elif isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    if dotted is None:
                        continue
                    parts = dotted.split(".")
                    if (len(parts) == 2 and parts[0] == "self"
                            and parts[1] in own):
                        queue.append(parts[1])
                    elif (parts[-1] in _RNG_CALL_LEAVES
                            and "rng" not in dotted.lower()
                            and parts[0] == "self"):
                        touches.add(f"{dotted}()")
        return touches
