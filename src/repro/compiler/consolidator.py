"""Consolidation driver: applies the child and parent transformations to a
module (Fig. 3's kernel-transformation flow).

For irregular loops (distinct parent/child kernels) the two phases are
applied separately to each kernel; for parallel recursion (child == parent)
they are applied sequentially to the single input kernel — the consolidated
child is built from the *original* body and then itself parent-transformed,
which is what lets the consolidated kernel relaunch itself on the next
level's buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Optional

from ..errors import TransformError
from ..frontend.ast_nodes import FunctionDef, Module
from ..frontend.typecheck import ModuleInfo, check_module
from ..frontend.unparser import unparse
from ..sim.occupancy import LaunchConfig
from ..sim.specs import DeviceSpec, K20C
from .analysis import TemplateInfo, find_template
from .parent_transform import transform_parent
from .strategies import get_strategy


@dataclass(frozen=True)
class ConsolidationReport:
    """What the compiler did — consumed by experiments and shown to users.

    Frozen: a build cache hands one report to every run that shares its
    consolidation."""

    granularity: str
    buffer_type: str
    parent_kernel: str
    child_kernel: str
    child_kind: str
    consolidated_kernel: str
    postwork_kernel: Optional[str]
    work_fields: tuple[str, ...]
    recursive: bool
    config_mode: str
    config: Optional[tuple[int, int]]  # (blocks, threads) when static

    def describe(self) -> str:
        cfg = (f"{self.config[0]}x{self.config[1]}" if self.config
               else self.config_mode)
        return (f"{self.granularity}-level consolidation of "
                f"{self.child_kernel} ({self.child_kind}) launched from "
                f"{self.parent_kernel}; buffer={self.buffer_type}, "
                f"fields={list(self.work_fields)}, config={cfg}"
                + (", recursive" if self.recursive else "")
                + (f", postwork={self.postwork_kernel}" if self.postwork_kernel
                   else ""))


@dataclass
class ConsolidationResult:
    module: Module
    info: ModuleInfo
    source: str
    report: ConsolidationReport


def _config_from_directive(tpl: TemplateInfo, config: Optional[LaunchConfig],
                           spec: DeviceSpec) -> LaunchConfig:
    if config is not None:
        if config.spec is None:
            config = dc_replace(config, spec=spec)
        return config
    d = tpl.directive
    if d.blocks is not None:
        return LaunchConfig(mode="explicit", blocks=d.blocks,
                            threads=d.threads, spec=spec)
    return LaunchConfig(mode="kc", threads=d.threads, spec=spec)


def consolidate_module(module: Module, granularity=None,
                       config: Optional[LaunchConfig] = None,
                       parent: Optional[str] = None,
                       spec: DeviceSpec = K20C) -> ConsolidationResult:
    """Apply workload consolidation to a *freshly built* module.

    ``granularity`` names a registered
    :class:`~repro.compiler.strategies.base.ConsolidationStrategy` (or is
    one); ``None`` uses the pragma's ``consldt`` clause. The module is
    consumed (transformed in place and rebuilt); callers that need
    several strategies applied to the same code should re-parse per call
    (see :func:`repro.compiler.pipeline.consolidate_source`).
    """
    info = check_module(module)
    tpl = find_template(info, parent)
    strategy = get_strategy(granularity if granularity is not None
                            else tpl.directive.granularity)
    cfg = _config_from_directive(tpl, config, spec)
    cons_name = strategy.consolidated_name(tpl.child.name)
    for fn in module.functions():
        if fn.name == cons_name:
            raise TransformError(
                f"module already contains a kernel named {cons_name!r}")

    if tpl.recursive:
        # phase 1 (child): clone the ORIGINAL body into the drain kernel
        cons_child = strategy.build_child(tpl)
        # phase 2 (parent) on the original kernel
        new_parent, post1 = transform_parent(tpl, strategy, cfg, cons_name)
        other = [d for d in module.decls
                 if not (isinstance(d, FunctionDef) and d.name == tpl.parent.name)]
        temp_module = Module(other + [new_parent, cons_child])
        temp_info = check_module(temp_module, allow_reserved=True)
        tpl2 = find_template(temp_info, parent_name=cons_name)
        new_cons, post2 = transform_parent(tpl2, strategy, cfg, cons_name)
        decls = [d for d in temp_module.decls
                 if not (isinstance(d, FunctionDef) and d.name == cons_name)]
        decls.append(new_cons)
        for post in (post1, post2):
            if post is not None:
                decls.append(post)
        postwork_name = post1.name if post1 else (post2.name if post2 else None)
        final = Module(decls)
    else:
        cons_child = strategy.build_child(tpl)
        new_parent, post = transform_parent(tpl, strategy, cfg, cons_name)
        decls = []
        for d in module.decls:
            if isinstance(d, FunctionDef) and d.name == tpl.parent.name:
                decls.append(new_parent)
            else:
                decls.append(d)
        decls.append(cons_child)
        if post is not None:
            decls.append(post)
        postwork_name = post.name if post else None
        final = Module(decls)

    final_info = check_module(final, allow_reserved=True)  # validate generated code
    static = None
    if cfg.mode != "one2one":
        static = cfg.resolve(cfg.spec or spec, strategy.name)
    report = ConsolidationReport(
        granularity=strategy.name,
        buffer_type=tpl.directive.buffer_type,
        parent_kernel=tpl.parent.name,
        child_kernel=tpl.child.name,
        child_kind=tpl.child_kind,
        consolidated_kernel=cons_name,
        postwork_kernel=postwork_name,
        work_fields=tuple(tpl.fields),
        recursive=tpl.recursive,
        config_mode=cfg.mode,
        config=static,
    )
    return ConsolidationResult(
        module=final,
        info=final_info,
        source=unparse(final),
        report=report,
    )
