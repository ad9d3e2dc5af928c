"""Experiment harness: datasets, configuration, experiments and the CLI."""
