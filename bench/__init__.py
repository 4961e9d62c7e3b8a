"""Host-time benchmark of the NiLiCon simulator; see bench/README.md."""
