"""Result analysis: speedups, charts, experiment reports."""
