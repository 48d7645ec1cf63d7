"""The negative-sampling loss of one training pair, the finite-difference oracle of the SGNS tests.

The loss is computed on its own, through ``np.logaddexp``; its gradient with
respect to the center vector goes through the trainer's
``embeddings._sgns_coefficients``, which the tests check against finite
differences of the loss.
"""

import numpy as np

from conceptbag.embeddings import _sgns_coefficients


def sgns_loss_and_grad(center, context, negatives):
    """Negative-sampling loss and its gradient w.r.t. the center vector.

    loss = -log sigmoid(c.x) - sum_j log sigmoid(-n_j.x).
    """
    targets = np.vstack([context, *negatives])
    scores = targets @ center
    loss = np.logaddexp(0.0, -scores[0]) + np.logaddexp(0.0, scores[1:]).sum()
    return loss, _sgns_coefficients(scores) @ targets
