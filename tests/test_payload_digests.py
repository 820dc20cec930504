"""The sha256 of four CLI payloads, pinned: refactors must keep every report byte for byte.

The commands span the four operator kinds, mixture inputs with truncated
powers and exponential parts, a negative coefficient, nested quadrature
(apply, and the ratios and probes of verify-sharp), plain norms and the
exact weight moments of constants, bounded and unbounded.  A change
that moves a payload on purpose re-pins its digest here and says so.
"""

import hashlib

import pytest

from heishardy.cli import EXIT_OK, main

PAYLOADS = {
    "verify-sharp --kind hardy,dual-hardy,whardy,wcesaro --n 1 --p 2,5 --trials 4 --seed 3":
        "9c24a31b3350fb778cc1834f3dbf96383c8923d4d522b4e118719dcd2a558f37",
    "apply --kind hardy,dual-hardy,whardy,wcesaro --n 1,2 --weight power:c=1,beta=3 "
    "--function power:-3,lo=1+exp:2,alpha=1 --radii 0.5,1,2,7":
        "5b48ff63b5c47e7b3c26bd747c6299f0dd08b79865252acd9ca58c837abf6236",
    "norm --function power:-3,lo=1,hi=5+exp:2,alpha=1,c=-2 --n 1,2 --p 2,5":
        "280832baf6a2b2057ef04fa4eb7da6ce8e2591fbd94108477c5bcefbd2781c37",
    "constants --kind whardy,wcesaro,hardy,dual-hardy --weight power:c=2,beta=1.5 --p 1.5,2,5 "
    "--n 1,2 --pbar2 2,4":
        "9b10ff6245362bfd82ead3319111d9600bd40a9d17ab494c46a5bc5c280a9e24",
}


@pytest.mark.parametrize("command", list(PAYLOADS), ids=lambda c: c.split()[0])
def test_payload_digest(command, capsys, monkeypatch):
    monkeypatch.delenv("HH_SEED", raising=False)  # the default --seed of apply and norm
    status = main(command.split())
    captured = capsys.readouterr()
    assert status == EXIT_OK, captured.err
    assert hashlib.sha256(captured.out.encode()).hexdigest() == PAYLOADS[command]
