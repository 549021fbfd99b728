"""Client-observed serving benchmark of the k-SOI / describe server."""
