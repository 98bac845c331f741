"""The superthreaded architecture: machine, scheduler, configurations."""
