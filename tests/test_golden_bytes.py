"""Document bytes pinned across commits.

The digests are sha256 of stdout of the CLI commands below.  The k = 3
ones were recorded before scattering and broken lines moved to
homogeneous integer points, the k = 4 ones (the benchmark's k) before
wall crossings were applied term by term with memoized wall powers, and
the forest trees, disks on P1xP1 and dP6, counts and degenerations before
the forest front end was reduced to one resample loop and one derived
disk-degree rule.  The potentials at k = 5 and on P1xP1 and dP6, and the
SVG bytes of `render` on a diagram and a potential document, were
recorded before every wall became a single-term ray crossed in closed
form; the SVG digests were re-recorded once since, when each wall's
tooltip became its function f itself (it read "1 + f").  A change to the
point, ring or forest arithmetic that alters any canonical document
(docs/schemas.md) or its picture fails here.
"""

import hashlib
import re

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
    "trees --k 3 --seed 1":
        "6708f9fc88cb18defbc7de9fd389bd1f3938eb6a41fc9d96239717310c486081",
    "disks --fan dp6 --k 2 --seed 3":
        "e233b3ad3a1c84478f35db1d4c765e3f9abe283db354bfaddbc2d59b4820f4e8",
    "disks --fan p1xp1 --k 3 --seed 3":
        "de7c789c01cb4f1d15d33c41129509422d3d2d63b49cfbb75ceb6dba46c03ece",
    "count --degree 3 --seed 1":
        "8d2e8d0fce390414984c49ef9f9af66a606480f5e92eb115c137477ff1e05df1",
    "welschinger --fan p1xp1 --degree 2 --seed 1":
        "d596496a17a190adf5198b7c17ea8c3ca14838215d02c6cbbb85a66292a8f619",
    "degenerate --fan dp6 --degree anticanonical --rescale --seed 1":
        "91217fa627fe7b5787f91a0001ce87280b8ec505eeb0f17b00ac1ca0ceb9daa0",
    "phi-check --fan dp6 --degree anticanonical --seed 1":
        "d8d21adabfb79f41863d68bac071e3a1cc6c4a15b529e445ebb46cb2f36e9d30",
    # an endpoint given as a rational pair on the command line
    "potential --k 3 --seed 2 --q 1/3,-2/7":
        "104b7c94bb5947c7fe02885274377897cdf77d14bbcb281355efb757a3398a9b",
    "potential --k 5 --seed 1":
        "870988d533c0b7ad9e9f2fd1bf2313e9a1ba47e624e095f4e9ef7fcb81a865a9",
    "potential --fan p1xp1 --k 4 --seed 3":
        "91adece4a73c3c3d9cafc9bca4cbf8149f9636a663ad5e52e4dc7a98aa534f6d",
    "potential --fan dp6 --k 3 --seed 2":
        "6a9cdc9f4539ebdc925b379afd1f97e1eb11b9ee9205cd171418098d3e825c77",
}

# sha256 of the SVG that `render` draws from the document of each command
SVG_GOLDEN = {
    "scatter --k 3 --seed 1":
        "d7406ec65346a0b7ca1b0d476c1d9c31523883bdba486bbf77d8263861b13b73",
    "potential --k 3 --seed 1":
        "f297c31d964a8ca84df0fe0bb89555e4b82ff31ee9d0369d7a6b93b1deee94f4",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_document_bytes(argv, capsys):
    assert cli.main(argv.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


def render(argv, capsys, tmp_path):
    """The SVG bytes `render` draws from the document of a command."""
    assert cli.main(argv.split()) == cli.EXIT_OK
    doc = tmp_path / "doc.json"
    doc.write_text(capsys.readouterr().out)
    svg = tmp_path / "doc.svg"
    assert cli.main(["render", str(doc), str(svg)]) == cli.EXIT_OK
    return svg.read_bytes()


@pytest.mark.parametrize("argv", sorted(SVG_GOLDEN))
def test_render_bytes(argv, capsys, tmp_path):
    svg = render(argv, capsys, tmp_path)
    assert hashlib.sha256(svg).hexdigest() == SVG_GOLDEN[argv]


def test_wall_tooltip_is_the_wall_function(capsys, tmp_path):
    svg = render("scatter --k 1 --seed 1", capsys, tmp_path).decode()
    # f = 1 + u1*z^{e_i}, one wall per ray of P2, then the marked point
    assert re.findall(r"<title>([^<]*)</title>", svg) == [
        "1*z^[0, 0, 0] + 1*u1*z^[%s]" % e
        for e in ("1, 0, 0", "0, 1, 0", "0, 0, 1")] + ["P1"]
