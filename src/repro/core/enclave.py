"""Secure-enclave execution for service modules.

§6.2 proposes running privacy-sensitive services inside secure enclaves
(AMD SEV in the paper's Table 1 measurements): the non-enclave parts of an
SN then learn only which SNs it talks to, never the service content.

A real enclave's dominant datapath cost is I/O — crossing the trust
boundary copies and re-encrypts buffers (SEV encrypts guest memory pages).
We model an enclave as a wrapper around a service module that:

* copies and seals the message across the boundary on entry, and the result
  on exit (real CPU work in wall-clock benchmarks — this is what produces
  Table 1's ~8-9% tax);
* extends the node TPM's enclave PCR with a measurement of the loaded
  module, so clients can attest what code their packets hit;
* refuses to expose module state to the untrusted side.
"""

from __future__ import annotations

import hashlib
# _cross serializes to model the SEV page copy and only ever unpickles the
# blob it just sealed itself (ROADMAP item 6a owns replacing it).
# repro: allow(DET001)
import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..obs.recorder import NULL_RECORDER
from .attestation import PCR_ENCLAVE, SoftwareTPM, measure
from .crypto import NonceGenerator, random_key, seal

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.recorder import FlightRecorder, NullRecorder


class EnclaveError(Exception):
    """Raised when enclave invariants are violated."""


@dataclass
class EnclaveStats:
    crossings: int = 0
    bytes_crossed: int = 0


class Enclave:
    """A trust boundary around one service module's packet handler.

    The boundary cost is paid per crossing: the request is serialized,
    copied, and MACed with the enclave's memory-encryption key on the way
    in, and the response on the way out. That work is intentionally real —
    the T1 benchmark measures it.
    """

    def __init__(
        self,
        module_name: str,
        module_image: bytes,
        tpm: Optional[SoftwareTPM] = None,
    ) -> None:
        self.module_name = module_name
        self.measurement = measure(module_image)
        self._memory_key = random_key()
        self._nonce = NonceGenerator()
        self.stats = EnclaveStats()
        #: Flight recorder for crossing events; the shared no-op until the
        #: execution environment threads a real one through.
        self.recorder: "FlightRecorder | NullRecorder" = NULL_RECORDER
        self._tpm = tpm
        if tpm is not None:
            tpm.extend(PCR_ENCLAVE, self.measurement)

    def _cross(self, obj: Any) -> Any:
        """Move an object across the enclave boundary.

        Models SEV's page-encryption I/O: serialize, seal with the memory
        key, then unseal and deserialize on the other side. The sealed blob
        is immediately opened — the point is the work, not the secrecy (the
        process *is* both worlds in a simulation).
        """
        blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        nonce = self._nonce.next()
        sealed = seal(self._memory_key, nonce, blob)
        self.stats.crossings += 1
        self.stats.bytes_crossed += len(blob)
        if self.recorder.recording:
            self.recorder.event(
                "enclave.cross", module=self.module_name, nbytes=len(blob)
            )
        # Unseal: the AES-GCM open (tag check, then decrypt) the far side
        # of the page copy makes, symmetric to the seal above.
        from .crypto import open_sealed

        return pickle.loads(open_sealed(self._memory_key, nonce, sealed))

    def call(self, handler: Callable[..., Any], *args: Any) -> Any:
        """Invoke ``handler(*args)`` inside the enclave."""
        inside_args = self._cross(args)
        result = handler(*inside_args)
        return self._cross(result)

    def quote(self, nonce: bytes):
        """Attestation quote covering the enclave PCR (if a TPM is fitted)."""
        if self._tpm is None:
            raise EnclaveError("no TPM attached to this enclave")
        return self._tpm.quote(nonce, indices=[PCR_ENCLAVE])


def module_image(module_cls: type) -> bytes:
    """Deterministic 'binary image' of a service module class.

    Real deployments measure the module binary; we measure the class's
    qualified name and source-visible attributes, which is stable across
    runs of the same code.
    """
    ident = f"{module_cls.__module__}.{module_cls.__qualname__}"
    version = getattr(module_cls, "VERSION", "0")
    return hashlib.sha256(f"{ident}|{version}".encode()).digest()
