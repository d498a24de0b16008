"""End-to-end host-time benchmark with per-layer attribution (README.md)."""
