"""HD-Index benchmark: workloads, span tracing and checks (see RECORD.md)."""
