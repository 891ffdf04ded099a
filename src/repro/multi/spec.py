"""The shared ``--campaign SPEC`` parser for the CLI.

``simulate``, ``serve`` and ``loadgen`` historically grew overlapping
per-command flag sets (``--scale``, ``--proteins``, ...).  The campaign
spec consolidates them into one mini-language parsed in one place, so a
new campaign knob lands once and every subcommand gets it::

    --campaign name=hcmd,kind=cross-docking,scale=300,proteins=10
    --campaign kind=screening,ligands=2000,mean-hours=1.5,weight=2

A spec is a comma-separated ``key=value`` list.  ``kind`` selects the
workload (``cross-docking``, the default, or ``screening``); the other
keys map onto :class:`repro.multi.Campaign` fields and workload knobs.
Repeat the flag to register several campaigns on one grid (``simulate``
only; ``serve``/``loadgen`` speak the single-campaign wire protocol and
say so rather than guessing).

Errors are raised as :class:`CampaignSpecError` with the offending key
and the valid vocabulary spelled out — the CLI surfaces them verbatim.
"""

from __future__ import annotations

from .campaign import Campaign

__all__ = ["CampaignSpecError", "parse_campaign_spec", "SPEC_KEYS"]


class CampaignSpecError(ValueError):
    """A malformed ``--campaign`` spec (message is user-facing)."""


#: spec key -> (target, description); "campaign" keys map to Campaign
#: fields, "cross-docking"/"screening" keys to that workload's knobs.
SPEC_KEYS: dict[str, tuple[str, str]] = {
    "name": ("campaign", "campaign name (default: the kind)"),
    "kind": ("campaign", "workload: cross-docking (default) | screening"),
    "weight": ("campaign", "fair-share / lottery weight (float > 0)"),
    "priority": ("campaign", "strict-priority rank (int, higher wins)"),
    "quota": ("campaign", "max share of issued work, in (0, 1]"),
    "submit": ("campaign", "admission week (float >= 0)"),
    "drain": ("campaign", "drain week (float > submit)"),
    "scale": ("cross-docking", "campaign shrink factor (float > 0)"),
    "proteins": ("cross-docking", "protein count (int >= 2)"),
    "target-hours": ("cross-docking", "workunit packaging target (float)"),
    "release": ("cross-docking", "receptor release order policy"),
    "ligands": ("screening", "ligand database size (int >= 1)"),
    "mean-hours": ("screening", "mean per-ligand docking hours (float)"),
    "sigma": ("screening", "lognormal cost shape (float >= 0)"),
    "batch": ("screening", "ligands per shipped result batch (int)"),
}

_KINDS = ("cross-docking", "screening")

#: the keys that schedule a campaign against the others on a shared grid:
#: spec key -> (:class:`Campaign` field, type)
_ROSTER_KEYS = {
    "weight": ("weight", float),
    "priority": ("priority", int),
    "quota": ("quota_fraction", float),
    "submit": ("submit_week", float),
    "drain": ("drain_week", float),
}


def _fail(message: str) -> None:
    raise CampaignSpecError(
        f"{message}\nvalid keys: "
        + ", ".join(f"{k} ({owner})" for k, (owner, _) in SPEC_KEYS.items())
    )


def _parse_pairs(spec: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not value.strip():
            _fail(f"expected key=value, got {item!r}")
        if key not in SPEC_KEYS:
            _fail(f"unknown campaign-spec key {key!r}")
        if key in pairs:
            _fail(f"duplicate key {key!r}")
        pairs[key] = value.strip()
    if not pairs:
        _fail(f"empty campaign spec {spec!r}")
    return pairs


def _convert(key: str, value: str, kind: type):
    try:
        return kind(value)
    except ValueError:
        raise CampaignSpecError(
            f"campaign-spec key {key!r} wants {kind.__name__}, "
            f"got {value!r}"
        ) from None


def parse_campaign_spec(spec: str, roster: bool = True) -> Campaign:
    """Parse one ``--campaign`` value into a :class:`Campaign`.

    ``roster=False`` is the single-campaign wire protocol (``serve`` /
    ``loadgen``): the roster keys are refused rather than silently dropped.

    >>> parse_campaign_spec("kind=screening,ligands=500,weight=2").name
    'screening'
    """
    pairs = _parse_pairs(spec)
    given = [key for key in _ROSTER_KEYS if key in pairs]
    if given and not roster:
        raise CampaignSpecError(
            f"campaign-spec key(s) {', '.join(map(repr, given))} schedule a "
            "campaign against others on a shared grid (`simulate "
            "--campaign`); serve/loadgen speak the single-campaign wire "
            "protocol"
        )
    workload_kind = pairs.pop("kind", "cross-docking")
    if workload_kind not in _KINDS:
        _fail(
            f"unknown workload kind {workload_kind!r}; "
            f"expected one of {_KINDS}"
        )
    for key, value in pairs.items():
        owner = SPEC_KEYS[key][0]
        if owner not in ("campaign", workload_kind):
            _fail(
                f"campaign-spec key {key!r} only applies to "
                f"kind={owner}, not kind={workload_kind}"
            )

    campaign_kwargs = {
        _ROSTER_KEYS[key][0]: _convert(key, pairs[key], _ROSTER_KEYS[key][1])
        for key in given
    }

    name = pairs.get("name", "hcmd" if workload_kind == "cross-docking" else "screening")
    try:
        if workload_kind == "cross-docking":
            return Campaign.cross_docking(
                name,
                scale=_convert("scale", pairs["scale"], float)
                if "scale" in pairs else 200.0,
                n_proteins=_convert("proteins", pairs["proteins"], int)
                if "proteins" in pairs else 24,
                target_hours=_convert(
                    "target-hours", pairs["target-hours"], float
                ) if "target-hours" in pairs else 3.65,
                release_policy=pairs.get("release", "least-cost"),
                **campaign_kwargs,
            )
        return Campaign.screening(
            name,
            n_ligands=_convert("ligands", pairs["ligands"], int)
            if "ligands" in pairs else 2_000,
            mean_hours=_convert("mean-hours", pairs["mean-hours"], float)
            if "mean-hours" in pairs else 1.5,
            sigma=_convert("sigma", pairs["sigma"], float)
            if "sigma" in pairs else 0.6,
            batch_size=_convert("batch", pairs["batch"], int)
            if "batch" in pairs else 100,
            **campaign_kwargs,
        )
    except ValueError as exc:
        # Campaign/workload validation errors become spec errors with the
        # same user-facing contract.
        raise CampaignSpecError(f"invalid campaign spec {spec!r}: {exc}") from exc
