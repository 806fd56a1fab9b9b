"""End-to-end benchmark for the clustering pipeline (see README.md)."""
