"""Built-in material library and (de)serialization of dispersion models.

Each library entry is a key-value document with fields
``{name, comment, sellmeier: [[a, l], ...], resonances: [{center, amplitude, width}...]}``,
all but ``sellmeier`` optional; ``{constant_index, resonances}`` is a constant
medium.  Sellmeier ``l`` values are squared resonance wavelengths in um^2.
"""

from __future__ import annotations

import json
import numbers
from functools import lru_cache
from importlib import resources

from .dispersion import (
    ConstantIndex,
    DispersionModel,
    LorentzianResonance,
    SellmeierModel,
)


class UnknownMaterialError(KeyError):
    """Requested material is not in the library."""


@lru_cache(maxsize=1)
def _library() -> dict:
    with resources.files(__package__).joinpath("materials.json").open("r") as fh:
        return json.load(fh)


def available_materials() -> list[str]:
    return sorted(_library().keys())


def _float(value) -> float:
    """float(value) of a document's number; a bool, a string or any other type is a TypeError.

    An integer beyond the float range is a ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} is too large for a float") from None


def _known_keys(doc: dict, keys) -> None:
    """Raise a ValueError that names the first key of doc outside keys, if any."""
    unknown = doc.keys() - keys
    if unknown:
        raise ValueError(f"unknown key {min(unknown)!r}")


def model_from_dict(doc: dict) -> DispersionModel:
    """A DispersionModel from a material document; a key outside its schema is a ValueError."""
    if "constant_index" in doc:
        _known_keys(doc, ("constant_index", "resonances"))
        base = ConstantIndex(_float(doc["constant_index"]))
    elif "sellmeier" in doc:
        _known_keys(doc, ("name", "comment", "sellmeier", "resonances"))
        if not all(isinstance(term, (list, tuple)) for term in doc["sellmeier"]):
            raise ValueError("each Sellmeier term must be an [a, l] pair")
        base = SellmeierModel(
            terms=tuple((_float(a), _float(l)) for a, l in doc["sellmeier"]),
            name=str(doc.get("name", "")),
        )
    else:
        raise ValueError("material document needs 'sellmeier' or 'constant_index'")
    keys = ("center", "amplitude", "width")
    lines = doc.get("resonances", ())
    for line in lines:
        _known_keys(line, keys)
    resonances = tuple(LorentzianResonance(*(_float(r[key]) for key in keys)) for r in lines)
    return DispersionModel(base=base, resonances=resonances)


def model_to_dict(model: DispersionModel) -> dict:
    """Serialize a DispersionModel to the library document format."""
    doc: dict = {}
    if isinstance(model.base, ConstantIndex):
        doc["constant_index"] = model.base.n0
    else:
        doc["name"] = model.base.name
        doc["sellmeier"] = [[a, l] for a, l in model.base.terms]
    doc["resonances"] = [
        {"center": r.center, "amplitude": r.amplitude, "width": r.width}
        for r in model.resonances
    ]
    return doc


def get_material(name: str) -> DispersionModel:
    """Look up a material by name in the built-in library."""
    try:
        doc = _library()[name]
    except KeyError:
        raise UnknownMaterialError(
            f"unknown material {name!r}; available: {', '.join(available_materials())}"
        ) from None
    return model_from_dict(doc)
