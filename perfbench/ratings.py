"""Seeded ratings file in the MovieLens-100k ``u.data`` layout.

The file has the real dataset's shape: 943 users, 1682 items and 100,000
distinct integer ratings on the 1..5 scale, written as
``user<TAB>item<TAB>rating<TAB>timestamp`` with 1-indexed ids. Every user
rates at least 20 items and every item is rated at least once, so the parser
infers the full 943 x 1682 shape. Ratings come from a low-rank model with
user and item offsets, rounded and clipped to the scale, so holdout RMSE
measures a real fit and no line triggers a parser warning.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

USERS = 943
ITEMS = 1682
RATINGS = 100_000
MIN_PER_USER = 20
LATENT_RANK = 8
#: first timestamp and span of the real dataset (Sept 1997 to April 1998)
_T0 = 874_724_710
_T_SPAN = 18_000_000


def generate_ratings(seed: int, users: int = USERS, items: int = ITEMS,
                     ratings: int = RATINGS) -> np.ndarray:
    """(ratings, 4) int64 array of user, item, rating, timestamp rows.

    Deterministic given the arguments; pairs are distinct, ids 1-indexed,
    rows in random order as in the real file.
    """
    if ratings < max(users * MIN_PER_USER, items) or ratings > users * items:
        raise ValueError("ratings must cover every user and item without overflow")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x75D47A)))
    activity = rng.lognormal(0.0, 1.0, users)
    activity /= activity.sum()
    popularity = 1.0 / np.arange(1, items + 1) ** 0.9
    popularity = popularity[rng.permutation(items)]
    popularity /= popularity.sum()

    taken = np.zeros(users * items, dtype=bool)
    flat: list[np.ndarray] = []

    def take(candidates: np.ndarray, limit: int) -> int:
        _, first = np.unique(candidates, return_index=True)
        fresh = candidates[np.sort(first)]
        fresh = fresh[~taken[fresh]][:limit]
        taken[fresh] = True
        flat.append(fresh)
        return fresh.size

    # every item rated once, every user rates MIN_PER_USER items
    take(rng.choice(users, items, p=activity) * items + np.arange(items), items)
    for u in range(users):
        picks = rng.choice(items, MIN_PER_USER, replace=False, p=popularity)
        take(u * items + picks, MIN_PER_USER)
    missing = ratings - sum(f.size for f in flat)
    while missing > 0:
        batch = 2 * missing
        candidates = rng.choice(users, batch, p=activity) * items + rng.choice(
            items, batch, p=popularity
        )
        missing -= take(candidates, missing)
    pairs = np.concatenate(flat)
    pairs = pairs[rng.permutation(pairs.size)]
    user_idx, item_idx = np.divmod(pairs, items)

    u_lat = rng.standard_normal((users, LATENT_RANK)) / LATENT_RANK**0.5
    v_lat = rng.standard_normal((items, LATENT_RANK))
    score = (
        3.5
        + 0.4 * rng.standard_normal(users)[user_idx]
        + 0.5 * rng.standard_normal(items)[item_idx]
        + 0.8 * np.einsum("er,er->e", u_lat[user_idx], v_lat[item_idx])
        + 0.5 * rng.standard_normal(pairs.size)
    )
    rating = np.clip(np.rint(score), 1, 5).astype(np.int64)
    stamp = _T0 + rng.integers(0, _T_SPAN, pairs.size)
    return np.column_stack([user_idx + 1, item_idx + 1, rating, stamp])


def write_ratings(path, seed: int, **shape) -> np.ndarray:
    """Write generate_ratings(seed, **shape) to path; returns the rows."""
    rows = generate_ratings(seed, **shape)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, rows, fmt="%d", delimiter="\t")
    return rows
