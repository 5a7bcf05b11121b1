"""Several (ground truth, predictions) sequences as one, for scoring them together."""

from qtrack.data_io import GroundTruthTrack, TrajectoryOutput


def disjoint_union(sequences):
    """One sequence holding every given one apart.

    Each sequence's frames are shifted past the last frame of the one
    before it, and its ground-truth and prediction ids past the ids
    already used, so no frame and no id is shared by two sequences.
    """
    gts, preds = [], []
    frame0 = gt0 = pred0 = 0  # the first free frame, GT id and prediction id
    for gt_tracks, pred_tracks in sequences:
        gt_shift = gt0 - min((tr.track_id for tr in gt_tracks), default=0)
        pred_shift = pred0 - min((tr.track_id for tr in pred_tracks), default=0)
        gts += [GroundTruthTrack(tr.track_id + gt_shift, tr.category, {f + frame0: e for f, e in tr.frames.items()})
                for tr in gt_tracks]
        preds += [TrajectoryOutput(tr.track_id + pred_shift, tr.frames + frame0, tr.boxes, tr.scores, tr.polygons,
                                   tr.texts) for tr in pred_tracks]
        frame0 = max([f for tr in gts for f in tr.frames] + [f for tr in preds for f in tr.frames.tolist()],
                     default=-1) + 1
        gt0 = max((tr.track_id for tr in gts), default=-1) + 1
        pred0 = max((tr.track_id for tr in preds), default=-1) + 1
    return gts, preds
