"""Pretraining model: grouped patch embedding, shared encoder, reference
masking, cross-attention, and both objectives wired into one step."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor, dropout, gather_seq
from .config import PretrainConfig
from .encoder import (CrossAttentionBlock, Encoder, EncoderConfig,
                      attention_mask_bias)
from .groups import (GroupEmbedder, GroupPositionEncoding, GroupedTokens,  # noqa: F401
                     build_group_setting, draw_groups, sample_groups)
# sample_groups stays bound here: benchmarks/probes.py wraps model.sample_groups
from .objectives import (ClusterHead, LossReport, PositionHead,
                         cluster_objective, flatten_correspondences,
                         position_loss)
from .views import (Correspondence, RasterImage, compute_correspondence,
                    materialize_view, patchify, sample_query_views,
                    sample_reference_view)


class PretrainModel:
    def __init__(self, cfg: PretrainConfig, channel_tags: list[str], dtype=np.float32):
        self.cfg = cfg
        self.channel_tags = list(channel_tags)
        rng = np.random.default_rng([cfg.seed, 0x91])
        self.setting = build_group_setting(cfg.group_setting, channel_tags)
        # the bands the groups read, in the order the embedder expects them
        self.input_tags = [self.channel_tags[c] for c in self.setting.channels]
        self.enc_cfg = EncoderConfig(cfg.depth, cfg.width, cfg.heads, cfg.mlp_ratio,
                                     cfg.patch_size)
        self.embedder = GroupEmbedder(rng, self.setting, cfg.patch_size, cfg.width, dtype=dtype)
        self.encoding = GroupPositionEncoding(rng, self.setting.num_groups, cfg.width, dtype=dtype)
        self.encoder = Encoder(rng, self.enc_cfg, dtype=dtype)
        self.cross = CrossAttentionBlock(rng, self.enc_cfg, dtype=dtype)
        self.pos_head = PositionHead(rng, cfg.width, cfg.n_ref, dtype=dtype)
        self.cluster: ClusterHead | None = None
        if cfg.cluster_loss:
            self.cluster = ClusterHead(rng, cfg.width, cfg.num_prototypes,
                                       proto_dim=cfg.proto_dim or None, tau=cfg.tau,
                                       dtype=dtype)

    # -- parameter plumbing --------------------------------------------------

    def params(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.embedder.params("embed"))
        out.update(self.encoding.params("encpos"))
        out.update(self.encoder.params("encoder"))
        out.update(self.cross.params("cross"))
        out.update(self.pos_head.params("poshead"))
        if self.cluster is not None:
            out.update(self.cluster.params("cluster"))
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray], strict: bool = True):
        params = self.params()
        missing = set(params) - set(arrays)
        if strict and missing:
            raise KeyError(f"checkpoint missing parameters: {sorted(missing)[:5]}...")
        for name, p in params.items():
            if name in arrays:
                p.data = np.asarray(arrays[name]).astype(p.data.dtype).reshape(p.data.shape)

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params().items()}

    # -- one training step ---------------------------------------------------

    def _read_channels(self, image: RasterImage) -> RasterImage:
        """``image`` restricted to the bands the groups read, found by tag, so
        a full-channel image and one read with ``setting.channels`` give the
        same result."""
        if image.channel_tags == self.input_tags:
            return image
        missing = [t for t in self.input_tags if t not in image.channel_tags]
        if missing:
            raise ValueError(f"image channels {image.channel_tags} lack bands {missing} "
                             f"of group setting '{self.setting.name}'")
        idx = [image.channel_tags.index(t) for t in self.input_tags]
        return RasterImage(image.data[idx], list(self.input_tags), check_finite=False)

    def sample_batch_views(self, images: list[RasterImage], rng: np.random.Generator,
                           noise_rng: np.random.Generator | None = None):
        """Sample and materialize one reference + Q query views per image."""
        cfg = self.cfg
        refs, queries, corrs = [], [], []
        for img in map(self._read_channels, images):
            ref_spec = sample_reference_view(
                img, rng, (cfg.ref_scale_min, cfg.ref_scale_max),
                cfg.h_ref, cfg.patch_size, cfg.flip_prob)
            q_specs = sample_query_views(
                img, ref_spec, cfg.queries_per_ref, rng,
                (cfg.q_scale_min, cfg.q_scale_max), cfg.h_q, cfg.patch_size, cfg.flip_prob)
            ref_view = materialize_view(img, ref_spec).data
            if noise_rng is not None:
                ref_view = noise_rng.standard_normal(ref_view.shape).astype(np.float32)
            refs.append(patchify(ref_view, cfg.patch_size))
            queries.append(patchify(np.stack([materialize_view(img, s).data for s in q_specs]),
                                    cfg.patch_size))
            corrs.extend(compute_correspondence(s, ref_spec) for s in q_specs)
        return np.stack(refs), np.stack(queries), corrs

    def _encode(self, patches: np.ndarray, grid: int, rng) -> GroupedTokens:
        """Embed, encode and, with group sampling, keep one group per position.
        The group draw comes before the embedding, so only the kept tokens
        are embedded; the draw is the one ``sample_groups`` would make."""
        cfg = self.cfg
        g = self.setting.num_groups
        choice = None
        if cfg.group_sampling and g > 1:
            choice = draw_groups(g, patches.shape[:-3], rng)
        t = self.encoding(self.embedder(patches, choice), grid, grid)
        if cfg.dropout > 0:
            t = GroupedTokens(dropout(t.tokens, cfg.dropout, rng), t.group_ids, t.position_ids)
        mode = "same-group-exclusion" if cfg.same_group_masking else "none"
        z = self.encoder(t, mask_mode=mode)
        return GroupedTokens(z, t.group_ids, t.position_ids)

    def forward_step(self, images: list[RasterImage], rng: np.random.Generator,
                     noise_rng: np.random.Generator | None = None
                     ) -> tuple[Tensor, LossReport]:
        cfg = self.cfg
        ref_patches, q_patches, corrs = self.sample_batch_views(images, rng, noise_rng)
        b = len(images)
        qv = cfg.queries_per_ref
        grid_q = cfg.h_q // cfg.patch_size
        grid_ref = cfg.h_ref // cfg.patch_size

        zq = self._encode(q_patches, grid_q, rng)
        l_q = zq.length
        need_ref = cfg.eta < 1.0 or self.cluster is not None
        zr = None
        if need_ref:
            zr = self._encode(ref_patches, grid_ref, rng)

        # per-token targets: a token at spatial position i inherits h(i)
        pos_ids = zq.position_ids
        if pos_ids.ndim > 1:        # per-view draws all enumerate 0..N-1
            pos_ids = np.arange(l_q)
        token_corrs = [Correspondence(c.h[pos_ids]) for c in corrs]

        u = self._cross_attend(zq, zr, b, rng) if zr is not None and cfg.eta < 1.0 else zq.tokens
        u_flat = u.reshape(b * qv, l_q, cfg.width)
        ploss, acc, omega = position_loss(u_flat, self.pos_head, token_corrs)

        closs_val = 0.0
        reg_val = 0.0
        loss = ploss
        if self.cluster is not None and omega > 0:
            l_ref = zr.length
            rows, targets, weights = flatten_correspondences(token_corrs, l_q)
            b_idx = rows // (qv * l_q)
            # without group sampling both sequences are group-major, G*N long:
            # a query row's target is the reference token of its own group
            group = (rows % l_q) // (grid_q * grid_q)
            global_targets = b_idx * l_ref + group * (grid_ref * grid_ref) + targets
            zq_flat = zq.tokens.reshape(b * qv * l_q, cfg.width)
            zr_flat = zr.tokens.data.reshape(b * l_ref, cfg.width)
            closs, reg = cluster_objective(zq_flat, zr_flat, self.cluster, rows,
                                           global_targets, weights,
                                           sinkhorn_iterations=cfg.sinkhorn_iters)
            loss = loss + closs - cfg.lambda_me * reg
            closs_val = float(closs.data)
            reg_val = float(reg.data)

        report = LossReport(position_loss=float(ploss.data), cluster_loss=closs_val,
                            entropy_reg=reg_val, combined=float(loss.data),
                            acc_at_1=acc, omega_size=omega)
        return loss, report

    def _cross_attend(self, zq: GroupedTokens, zr: GroupedTokens, b: int,
                      rng: np.random.Generator) -> Tensor:
        cfg = self.cfg
        l_ref = zr.length
        keep = int(np.ceil((1.0 - cfg.eta) * l_ref))
        if keep == 0:
            return zq.tokens
        idx = np.stack([np.sort(rng.choice(l_ref, size=keep, replace=False))
                        for _ in range(b)])
        visible = gather_seq(zr.tokens, idx)                     # (B, keep, d)
        r_groups = np.broadcast_to(zr.group_ids, (b, l_ref))
        vis_groups = np.take_along_axis(r_groups, idx, axis=1)   # (B, keep)
        q_groups = zq.group_ids
        if q_groups.ndim == 1:
            q_groups = np.broadcast_to(q_groups, (b, cfg.queries_per_ref, zq.length))
        vis_b = visible.reshape(b, 1, keep, cfg.width)
        return self.cross(zq.tokens, vis_b, q_groups, vis_groups[:, None, :],
                          cfg.same_group_masking)
