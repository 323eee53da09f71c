"""Benchmark of the markovdual package: workloads, tracing and the run entry point."""
