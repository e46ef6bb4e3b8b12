"""Workload name -> module.  Each module provides GAUGE (the speed gauge its
op times are scaled by), WINDOW (ops per timing window) and the functions
generate, operate, check, warm_up, describe, traced and probe."""

MODULES = {
    "chart-render": "chart_render",
    "tower-sweep": "tower_sweep",
    "cli-oneshot": "cli_oneshot",
}
