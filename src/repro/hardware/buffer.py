"""eDRAM buffer array that decouples the PIM array from the host CPU.

The massive parallelism of the PIM array produces a burst of results per
wave; the buffer array caches them so the CPU can drain results while the
crossbars start the next wave (paper Section III-A). The model tracks
occupancy against the configured capacity and counts the bytes moved so
the cost model can charge internal-bus transfer time.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.hardware.config import MemoryConfig
from repro.telemetry import get_recorder


class BufferArray:
    """Bounded FIFO of PIM result blocks.

    Parameters
    ----------
    config:
        Memory configuration providing capacity and latency numbers.
    """

    def __init__(self, config: MemoryConfig | None = None) -> None:
        self.config = config if config is not None else MemoryConfig()
        self._blocks: list[np.ndarray] = []
        self._occupied_bytes = 0
        self.total_bytes_written = 0
        self.total_bytes_read = 0

    @property
    def occupied_bytes(self) -> int:
        """Bytes currently buffered."""
        return self._occupied_bytes

    @property
    def free_bytes(self) -> int:
        """Remaining buffer capacity."""
        return self.config.buffer_bytes - self._occupied_bytes

    def push(self, results: np.ndarray) -> None:
        """Deposit one wave's results into the buffer.

        Raises
        ------
        CapacityError
            If the block does not fit; callers should drain first (the
            controller sizes waves so this only signals a logic error).
        """
        block = np.asarray(results)
        nbytes = block.nbytes
        if nbytes > self.free_bytes:
            raise CapacityError(
                f"buffer overflow: {nbytes} B pushed, {self.free_bytes} B free"
            )
        self._blocks.append(block)
        self._occupied_bytes += nbytes
        self.total_bytes_written += nbytes
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("buffer.bytes_written").add(nbytes)
            tele.metrics.gauge("buffer.occupied_bytes").set(
                self._occupied_bytes
            )

    def pop(self) -> np.ndarray:
        """Remove and return the oldest buffered block."""
        if not self._blocks:
            raise CapacityError("buffer underflow: no results buffered")
        block = self._blocks.pop(0)
        self._occupied_bytes -= block.nbytes
        self.total_bytes_read += block.nbytes
        tele = get_recorder()
        if tele.enabled:
            tele.metrics.counter("buffer.bytes_read").add(block.nbytes)
            tele.metrics.gauge("buffer.occupied_bytes").set(
                self._occupied_bytes
            )
        return block

    def pulse_rows(self, n_rows: int, row_nbytes: int) -> int:
        """Synchronously push+pop ``n_rows`` rows of ``row_nbytes`` each.

        Semantically a ``push(row); pop()`` pair per fitting row on an
        otherwise-empty buffer — occupancy is unchanged throughout — but
        the byte counters are recorded once for the whole burst instead
        of per row, which keeps the hot batched-wave drain loop off the
        telemetry registry. Only sizes are modelled, so a wave that
        computed fewer columns than it fired still moves full rows.
        Falls back to the explicit pair, with placeholder rows, when
        blocks are already buffered (pop order would matter then).
        Returns the bytes moved.
        """
        if self._blocks:
            moved = 0
            for _ in range(n_rows):
                if row_nbytes <= self.free_bytes:
                    self.push(np.zeros(row_nbytes, dtype=np.uint8))
                    self.pop()
                    moved += row_nbytes
            return moved
        moved = n_rows * row_nbytes if row_nbytes <= self.free_bytes else 0
        self.total_bytes_written += moved
        self.total_bytes_read += moved
        if moved:
            tele = get_recorder()
            if tele.enabled:
                m = tele.metrics
                m.counter("buffer.bytes_written").add(moved)
                m.counter("buffer.bytes_read").add(moved)
                m.gauge("buffer.occupied_bytes").set(self._occupied_bytes)
        return moved

    def drain(self) -> list[np.ndarray]:
        """Remove and return every buffered block, oldest first."""
        blocks = []
        while self._blocks:
            blocks.append(self.pop())
        return blocks

    def read_time_ns(self, nbytes: int) -> float:
        """Time for the CPU to pull ``nbytes`` from the buffer.

        Charged as fixed access latency plus internal-bus streaming time.
        """
        stream_ns = nbytes / self.config.internal_bus_gbs  # B/(GB/s)=ns
        return self.config.buffer_read_latency_ns + stream_ns
