import json

import pytest

from scriptsum.errors import FormatError
from scriptsum.manifest import MANIFEST_NAME, RunManifest, load_manifest


def test_round_trip(tmp_path):
    RunManifest(command="encode", config={"distance_clip": 8}, seed=3).save(tmp_path)
    loaded = load_manifest(tmp_path)
    assert (loaded.command, loaded.config, loaded.seed) == ("encode", {"distance_clip": 8}, 3)


@pytest.mark.parametrize("payload", [[], ["command"], "encode", 7, None])
def test_non_object_is_format_error(tmp_path, payload):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="must be a JSON object"):
        load_manifest(tmp_path)
