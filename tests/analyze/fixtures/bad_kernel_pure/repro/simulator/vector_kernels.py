"""Fixture: an impure vector-kernel hook (A-PURE)."""

__all__ = ["VectorKernel"]


class VectorKernel:
    """Fixture stub."""

    def run_group(self, prototypes, ctx):
        """Fixture stub: reaches I/O through a helper."""
        return [_close_out(prototype) for prototype in prototypes]

    def bytes_per_replicate(self, prototype, p):
        """Fixture stub: not a hook, so its I/O is not this check's concern."""
        print("sizing", p)
        return 1024


def _close_out(prototype):
    """Fixture stub: I/O in the kernel's closure."""
    print("closing", prototype)
    return []
