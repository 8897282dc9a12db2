"""End-to-end and per-layer benchmark of fidstore; see NOTES.md."""
