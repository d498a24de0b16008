"""Golden RunStats digests for the STM bypass backends.

TinySTM and TSX never touch a signature, the hw engine or the window, so
these cells pin the driver, scheduler, memory and event path on their
own: a begin or commit that charges a different cost, a reordered abort
or a body built at a different time changes one of them.  The 28-thread
TSX cells exercise the fallback-lock ``cpu-lock-subscription`` aborts
that ``begin`` raises (genome alone has 614 of them).  The digest is
``sha256(json.dumps(stats.to_dict(), sort_keys=True))``, as in
``test_rococotm_golden.py``.
"""

import hashlib
import json

import pytest

from repro.exec import ExperimentSpec

GOLDEN = {
    ("genome", "TinySTM", 4): "f03e7c27e7b60326c68ee6415dea6581ece8f3dfe9f9fa2bca5a93b3b16d005b",
    ("genome", "TinySTM", 28): "78e0105dd4d3d022d587a677055d9a1fbb0c81bbbcd645c8dae1bf55d5831a92",
    ("genome", "TSX", 4): "a920802b7efac83e02cc5af2c8a41843c73a29a0555d64c3e529af4c7f398564",
    ("genome", "TSX", 28): "5193e8ea13967c3c0bffaf598cebb63e1aabdfe9a55c7fa17b4c23918cbe0ac8",
    ("intruder", "TinySTM", 4): "0290052e84d7667e1122b4a2df8db4c2dd6bdd13516f4bd4f1090501611d728d",
    ("intruder", "TinySTM", 28): "fb25c44f31e2a8a7a8b0536f6ca30b506c5becad45ced9afa4d2cf057939aee7",
    ("intruder", "TSX", 4): "1ca6e6317189f8f532dac6331b9f763a7521c7be36e41945b5d8e73fa2116aa4",
    ("intruder", "TSX", 28): "edab318ad1f2a874072d18261b0b5eca7631f23694b5dd48bc8522c3f76a7cd6",
    ("kmeans", "TinySTM", 4): "4bb1fd43eb907bff3416f6636a7b7686d84bcf598ea4241e8280acb28bae66e5",
    ("kmeans", "TinySTM", 28): "d79c53efea1ca54cff2f2a737d8697a3f02fdee1fad19fb477052b30ae4559af",
    ("kmeans", "TSX", 4): "dbc90f386104625331fce3c0d2e309729c83e7bdbbfe7aceb8269b753c6a2cba",
    ("kmeans", "TSX", 28): "ce430a24359ef7e8c386f66467d38f0d1dc4ff032039ff980b10395a1d760b86",
    ("labyrinth", "TinySTM", 4): "110ec1567bfc6f47769d9dbd97bd9415f395c080774d52f7b2c5cc760de0270d",
    ("labyrinth", "TinySTM", 28): "5645c555de2a158f0d786c7aa0c8838405b347062d81bebc812c41b16202e952",
    ("labyrinth", "TSX", 4): "5ee85a8d28848a9151d510e898a936afa695d965d8aa03fdea77e70f57f47b6a",
    ("labyrinth", "TSX", 28): "649a27b0039921e7b5d40a8dfc25c6c50f5329e04acc6a67b83e7408d01bfd31",
    ("ssca2", "TinySTM", 4): "5a23037dfee1a517a3c4ae9a704319e0ed88b45d3943bd9c2c0f3cc8e08e438d",
    ("ssca2", "TinySTM", 28): "f40d379ce392f7925613ab650746161dab7f5a547995c7b49a81411db35b5b32",
    ("ssca2", "TSX", 4): "cc806cf7e6d0dbb5659f7a37fd427a2ecab35d0941ac6c9085829387a470acb6",
    ("ssca2", "TSX", 28): "b5124397d215208cdda72390ed80355eac40d525d359931eae61828ceb23224e",
    ("vacation", "TinySTM", 4): "3b9f0d6e5bc7641f65ae503dde7edde4700ea094eae5bd5b237d3721002f849a",
    ("vacation", "TinySTM", 28): "fc5bfaee6c02c76d5278ecf0b8a60456a0e50850e78be42b2399224d8ad0376f",
    ("vacation", "TSX", 4): "9f1081d30562453a3461a7aa0f5fc4199553817ac69aa6a96c46570645d5933e",
    ("vacation", "TSX", 28): "4cc94c7a1c4cff37d5ec20cf07a2602b28657c6140fb5fadfe77e54be8af9421",
    ("yada", "TinySTM", 4): "af350c2c8327a78f320edd8489a2e72acb7e40d2c9fd732ee8ac7aebea409762",
    ("yada", "TinySTM", 28): "6ec4b3f32a8ae3c3e81dc7e428b494d98feaf517b32bc9dfb42150b8b69b5da4",
    ("yada", "TSX", 4): "32eb23e8172b3689c7b42cf2a0f54919e1d9952bb5e1d55d0d9ac65d9b41b06b",
    ("yada", "TSX", 28): "5c35838018321b5cbe82a56dde81f7c424417a9e5bc3871359c9b871f67f83ec",
}


def digest(spec: ExperimentSpec) -> str:
    payload = json.dumps(spec.execute().to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("app,backend,threads", sorted(GOLDEN))
def test_runstats_digest(app, backend, threads):
    spec = ExperimentSpec(app, backend, threads, scale=0.1, seed=1)
    assert digest(spec) == GOLDEN[(app, backend, threads)]
