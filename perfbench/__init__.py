"""The repository benchmark: host wall time of the simulator per workload."""
