"""The qustat benchmark: workloads, output checks, tracing and measurement."""
