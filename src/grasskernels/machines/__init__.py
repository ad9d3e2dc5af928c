"""Learning machines that consume precomputed kernel matrices."""
