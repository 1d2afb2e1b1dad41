"""Document bytes pinned across commits.

The digests are sha256 of stdout of the CLI commands below.  The k = 3
ones were recorded before scattering and broken lines moved to
homogeneous integer points, the k = 4 ones (the benchmark's k) before
wall crossings were applied term by term with memoized wall powers.  A
change to the point or ring arithmetic that alters any canonical document
(docs/schemas.md) fails here.
"""

import hashlib

import pytest

from tropenum import cli

GOLDEN = {
    "scatter --k 3 --seed 1":
        "6056680c2132a010d9d14592126e49e927e489211d087d3ed524d76cec775cef",
    "scatter --k 3 --seed 2":
        "eede9ca32d0e05d658e396a408824c28b811c520dbb4ce83476336ad6efc2728",
    "scatter --k 3 --seed 3":
        "ed713a7297b2ee796eb7a99119df5d8c3f74068e28168514bc35be30bc5385ce",
    "potential --k 3 --seed 1":
        "fd172ae4eb759b828f4a25442ac8d5b403941cfbe531192f4030791c4fcc0d9f",
    "potential --k 3 --seed 2":
        "d644f3a7e94543ec248cd24d4e8e916fe58589e82b8e50aa4deaed067bd51290",
    "potential --k 3 --seed 3":
        "2e5313e011204d90eeb2ac1da8d4db69b812e64490e3a9751bfe8811751ab0fe",
    "disks --k 3 --seed 1":
        "47fcecf47b8dfc1c50642b3fc7012ac966182082363624c2fff42a3080c2a068",
    "disks --k 3 --seed 2":
        "99f5b325ba959e4dbad307ac55437f9c90b651cd05101c342c6be818c2d7f181",
    "disks --k 3 --seed 3":
        "29b13a092a33d7fc1a0988093008539ff932a8a7bec8c35e0767a90ffe302a14",
    "scatter --k 4 --seed 1":
        "75a5b932df4495e17c9c8a66274322d9e5ea8e43487158259aca4379713dc948",
    "potential --k 4 --seed 1":
        "be4ea28e3c314c199c4255508579aaeb09251d19197cac6f162033ea0c116fdb",
    "potential --k 4 --seed 2":
        "48ac921178b0766bed39512d1a040f73694270e1994e6151ce45fba266398c91",
    # an endpoint given as a rational pair on the command line
    "potential --k 3 --seed 2 --q 1/3,-2/7":
        "104b7c94bb5947c7fe02885274377897cdf77d14bbcb281355efb757a3398a9b",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_document_bytes(argv, capsys):
    assert cli.main(argv.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
