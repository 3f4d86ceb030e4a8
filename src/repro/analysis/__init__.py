"""reprolint — project-specific static analysis for the repro codebase.

The repo's standing contracts (ROADMAP "Standing invariants") are
enforced mechanically by two components:

* a per-file AST pass (:mod:`repro.analysis.core`, rules in
  :mod:`repro.analysis.rules`) run as ``repro lint`` or
  ``python -m repro.analysis``, and
* a whole-program pass (:mod:`repro.analysis.whole_program`, call graph
  in :mod:`repro.analysis.callgraph`, wire model in
  :mod:`repro.analysis.protocol_model`) run as ``repro lint
  --whole-program``: protocol conformance (``WIRE001``–``WIRE006``,
  drift-gated against the committed ``protocol_model.json`` via
  ``repro protocol dump --check``) and cross-module determinism taint
  (``DET101``–``DET103``).

Lock discipline also has a runtime half, which lives outside the linter
so that no served process loads it: :mod:`repro.locks` builds every lock
and, under ``REPRO_LOCK_CHECK=1``, raises on lock-order inversion or a
``*_locked`` helper entered lock-free.

Rule catalog
------------

==============  =======================================================
``lock-discipline``  ``LCK001`` call to a ``*_locked`` helper from a
                     scope not guarded by a ``with <lock>:`` context
                     (interprocedural within the module);
                     ``LCK002`` session-state attribute write in
                     ``service/``/``cluster/`` outside a guarded scope.
``determinism``      ``DET001`` direct wall-clock / RNG call in a
                     decision-relevant module (``exploration/``,
                     ``procedures/``, ``store/``, ``service/manager.py``);
                     ``DET002`` wall-clock callable bound as a parameter
                     default — the injectable seam itself, which must
                     carry a pragma documenting its wire meaning.
``boundary``         ``EXC001`` broad ``except Exception`` outside a
                     declared (pragma'd) boundary; ``EXC002`` a
                     ``ReproError`` raised with a formatted traceback in
                     its payload.
``ledger``           ``LED001`` a ``BENCH_*.json`` path opened for
                     writing outside ``benchmarks/ledger.py``.
==============  =======================================================

Violations are suppressed by a same-line pragma with a written reason::

    except Exception as exc:  # reprolint: allow(boundary) — wire envelope is the traceback firewall

A pragma without a reason, or one that suppresses nothing, is itself a
violation (``PRAGMA001`` / ``PRAGMA002``) so suppressions stay minimal
and documented.
"""

from repro.analysis.core import LintReport, Violation, run_lint
from repro.analysis.whole_program import run_whole_program

__all__ = ["LintReport", "Violation", "run_lint", "run_whole_program"]
