"""The figure report server (:mod:`repro.serve`).

A stdlib-only asyncio HTTP service over the figure registry
(:mod:`repro.report.registry`): browse the catalog at ``/figures``, fetch
any figure's data, Vega-Lite spec, standalone HTML page, or text summary
at ``/figures/<name>.<fmt>`` (one artifact per entry of
:data:`repro.report.registry.FORMATS`), scrape ``/metrics``.  Every
response carries the figure's content key as its ``ETag``, so clients
revalidate for free and a render is only ever recomputed when its inputs
changed — see docs/REPORT.md.
"""

from .server import FigureServer, Response, handle_request, run_server

__all__ = ["FigureServer", "Response", "handle_request", "run_server"]
