#include "decoder/blossom.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/logging.h"

namespace vlq {

namespace {

/**
 * State of one maximum-weight-matching run. Vertex ids are 0..n-1;
 * blossom ids n..2n-1. Edge endpoints are indexed 2k and 2k+1 for edge
 * k, so p^1 is the opposite endpoint and p/2 the edge.
 */
class Matcher
{
  public:
    /**
     * Load a new instance. Every buffer is re-initialised in place, so
     * a long-lived (per-thread) Matcher allocates only when an
     * instance is larger than any it has seen. With `complement` set
     * each weight w becomes maxW + 1 - w (maxW over the instance, and
     * at least 0), which turns maximum weight into minimum weight
     * without a flipped copy of the edge list.
     */
    void
    reset(int n, const std::vector<MatchEdge>& input, bool maxCardinality,
          bool complement)
    {
        n_ = n;
        maxCard_ = maxCardinality;
        double flipBase = 0.0;
        if (complement) {
            for (const auto& e : input)
                flipBase = std::max(flipBase, e.weight);
            flipBase += 1.0;
        }
        edges_.clear();
        int64_t maxw = 0;
        for (const auto& e : input) {
            VLQ_ASSERT(e.u != e.v, "self loop in matching graph");
            VLQ_ASSERT(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                       "matching edge endpoint out of range");
            double weight = complement ? flipBase - e.weight : e.weight;
            // Scale to even integers for exact dual arithmetic.
            int64_t w = 2 * llround(weight * kScale);
            edges_.push_back(Edge{e.u, e.v, w});
            maxw = std::max(maxw, w);
        }
        const int m = static_cast<int>(edges_.size());

        // Endpoint lists in CSR form: vertex v's entries, in edge
        // order, are neighbend_[neighbegin_[v] .. neighbegin_[v+1]).
        endpoint_.resize(2 * m);
        neighbegin_.assign(n_ + 1, 0);
        for (int k = 0; k < m; ++k) {
            endpoint_[2 * k] = edges_[k].u;
            endpoint_[2 * k + 1] = edges_[k].v;
            ++neighbegin_[edges_[k].u + 1];
            ++neighbegin_[edges_[k].v + 1];
        }
        for (int v = 0; v < n_; ++v)
            neighbegin_[v + 1] += neighbegin_[v];
        neighbend_.resize(2 * m);
        fill_.assign(neighbegin_.begin(), neighbegin_.end() - 1);
        for (int k = 0; k < m; ++k) {
            neighbend_[fill_[edges_[k].u]++] = 2 * k + 1;
            neighbend_[fill_[edges_[k].v]++] = 2 * k;
        }

        mate_.assign(n_, -1);
        label_.assign(2 * n_, 0);
        labelend_.assign(2 * n_, -1);
        inblossom_.resize(n_);
        for (int v = 0; v < n_; ++v)
            inblossom_[v] = v;
        blossomparent_.assign(2 * n_, -1);
        blossombase_.resize(2 * n_);
        for (int v = 0; v < n_; ++v)
            blossombase_[v] = v;
        for (int b = n_; b < 2 * n_; ++b)
            blossombase_[b] = -1;
        // Grow-only: inner lists keep their capacity across instances.
        if (blossomchilds_.size() < static_cast<size_t>(2 * n_)) {
            blossomchilds_.resize(2 * n_);
            blossomendps_.resize(2 * n_);
            blossombestedges_.resize(2 * n_);
        }
        for (int b = 0; b < 2 * n_; ++b) {
            blossomchilds_[b].clear();
            blossomendps_[b].clear();
            blossombestedges_[b].clear();
        }
        bestedge_.assign(2 * n_, -1);
        hasBestList_.assign(2 * n_, 0);
        unusedblossoms_.clear();
        for (int b = 2 * n_ - 1; b >= n_; --b)
            unusedblossoms_.push_back(b);
        dualvar_.assign(2 * n_, 0);
        for (int v = 0; v < n_; ++v)
            dualvar_[v] = maxw;
        allowedge_.assign(m, 0);
        queue_.clear();
    }

    /** Solve the loaded instance; mate[v] = partner of v or -1. */
    void
    run(std::vector<int>& mate)
    {
        for (int t = 0; t < n_; ++t) {
            if (!stage())
                break;
        }
        mate.assign(n_, -1);
        for (int v = 0; v < n_; ++v)
            if (mate_[v] >= 0)
                mate[v] = endpoint_[mate_[v]];
        for (int v = 0; v < n_; ++v)
            VLQ_ASSERT(mate[v] == -1 || mate[mate[v]] == v,
                       "matching is not symmetric");
    }

  private:
    static constexpr double kScale = double{1 << 20};

    struct Edge
    {
        int u;
        int v;
        int64_t w;
    };

    int n_ = 0;
    bool maxCard_ = false;
    std::vector<Edge> edges_;
    std::vector<int> endpoint_;
    std::vector<int> neighbegin_;
    std::vector<int> neighbend_;
    std::vector<int> mate_;
    std::vector<int> label_;
    std::vector<int> labelend_;
    std::vector<int> inblossom_;
    std::vector<int> blossomparent_;
    std::vector<std::vector<int>> blossomchilds_;
    std::vector<int> blossombase_;
    std::vector<std::vector<int>> blossomendps_;
    std::vector<int> bestedge_;
    std::vector<std::vector<int>> blossombestedges_;
    std::vector<uint8_t> hasBestList_;
    std::vector<int> unusedblossoms_;
    std::vector<int64_t> dualvar_;
    std::vector<uint8_t> allowedge_;
    std::vector<int> queue_;
    // Scratch of single (non-reentrant) calls.
    std::vector<int> fill_;
    std::vector<int> path_;
    std::vector<int> endps_;
    std::vector<int> bestedgeto_;

    std::span<const int>
    neighbors(int v) const
    {
        return std::span<const int>(neighbend_)
            .subspan(neighbegin_[v], neighbegin_[v + 1] - neighbegin_[v]);
    }

    int64_t
    slack(int k) const
    {
        return dualvar_[edges_[k].u] + dualvar_[edges_[k].v]
             - 2 * edges_[k].w;
    }

    /**
     * Visit the vertices inside blossom b in child order until `f`
     * returns true; returns whether it did. `f` may relabel vertices
     * but must not restructure blossoms.
     */
    template <typename F>
    bool
    anyLeaf(int b, F&& f) const
    {
        if (b < n_)
            return f(b);
        for (int t : blossomchilds_[b])
            if (anyLeaf(t, f))
                return true;
        return false;
    }

    template <typename F>
    void
    forEachLeaf(int b, F&& f) const
    {
        anyLeaf(b, [&](int v) {
            f(v);
            return false;
        });
    }

    void
    assignLabel(int w, int t, int p)
    {
        int b = inblossom_[w];
        VLQ_ASSERT(label_[w] == 0 && label_[b] == 0, "relabel attempt");
        label_[w] = label_[b] = t;
        labelend_[w] = labelend_[b] = p;
        bestedge_[w] = bestedge_[b] = -1;
        if (t == 1) {
            forEachLeaf(b, [&](int v) { queue_.push_back(v); });
        } else {
            int base = blossombase_[b];
            VLQ_ASSERT(mate_[base] >= 0, "T-blossom base unmatched");
            assignLabel(endpoint_[mate_[base]], 1, mate_[base] ^ 1);
        }
    }

    int
    scanBlossom(int v, int w)
    {
        path_.clear();
        int base = -1;
        while (v != -1 || w != -1) {
            int b = inblossom_[v];
            if (label_[b] & 4) {
                base = blossombase_[b];
                break;
            }
            VLQ_ASSERT(label_[b] == 1, "scanBlossom expects S-blossom");
            path_.push_back(b);
            label_[b] |= 4;
            VLQ_ASSERT(labelend_[b] == mate_[blossombase_[b]],
                       "S-blossom labelend mismatch");
            if (labelend_[b] == -1) {
                v = -1; // root of the tree
            } else {
                v = endpoint_[labelend_[b]];
                b = inblossom_[v];
                VLQ_ASSERT(label_[b] == 2, "expected T-blossom");
                VLQ_ASSERT(labelend_[b] >= 0, "T-blossom without edge");
                v = endpoint_[labelend_[b]];
            }
            if (w != -1)
                std::swap(v, w);
        }
        for (int b : path_)
            label_[b] &= ~4;
        return base;
    }

    void
    addBlossom(int base, int k)
    {
        int v = edges_[k].u;
        int w = edges_[k].v;
        int bb = inblossom_[base];
        int bv = inblossom_[v];
        int bw = inblossom_[w];

        VLQ_ASSERT(!unusedblossoms_.empty(), "out of blossom ids");
        int b = unusedblossoms_.back();
        unusedblossoms_.pop_back();

        blossombase_[b] = base;
        blossomparent_[b] = -1;
        blossomparent_[bb] = b;

        path_.clear();
        endps_.clear();
        while (bv != bb) {
            blossomparent_[bv] = b;
            path_.push_back(bv);
            endps_.push_back(labelend_[bv]);
            VLQ_ASSERT(label_[bv] == 2 ||
                           (label_[bv] == 1 &&
                            labelend_[bv] == mate_[blossombase_[bv]]),
                       "addBlossom trace error");
            VLQ_ASSERT(labelend_[bv] >= 0, "blossom trace without edge");
            v = endpoint_[labelend_[bv]];
            bv = inblossom_[v];
        }
        path_.push_back(bb);
        std::reverse(path_.begin(), path_.end());
        std::reverse(endps_.begin(), endps_.end());
        endps_.push_back(2 * k);
        while (bw != bb) {
            blossomparent_[bw] = b;
            path_.push_back(bw);
            endps_.push_back(labelend_[bw] ^ 1);
            VLQ_ASSERT(label_[bw] == 2 ||
                           (label_[bw] == 1 &&
                            labelend_[bw] == mate_[blossombase_[bw]]),
                       "addBlossom trace error");
            VLQ_ASSERT(labelend_[bw] >= 0, "blossom trace without edge");
            w = endpoint_[labelend_[bw]];
            bw = inblossom_[w];
        }
        blossomchilds_[b].assign(path_.begin(), path_.end());
        blossomendps_[b].assign(endps_.begin(), endps_.end());

        VLQ_ASSERT(label_[bb] == 1, "blossom base must be S");
        label_[b] = 1;
        labelend_[b] = labelend_[bb];
        dualvar_[b] = 0;

        forEachLeaf(b, [&](int leaf) {
            if (label_[inblossom_[leaf]] == 2)
                queue_.push_back(leaf);
            inblossom_[leaf] = b;
        });

        // Recompute best edges into neighboring S-blossoms.
        bestedgeto_.assign(2 * n_, -1);
        auto consider = [&](int kk) {
            int i = edges_[kk].u;
            int j = edges_[kk].v;
            if (inblossom_[j] == b)
                std::swap(i, j);
            int bj = inblossom_[j];
            if (bj != b && label_[bj] == 1 &&
                (bestedgeto_[bj] == -1 ||
                 slack(kk) < slack(bestedgeto_[bj]))) {
                bestedgeto_[bj] = kk;
            }
        };
        for (int child : blossomchilds_[b]) {
            if (!hasBestList_[child]) {
                forEachLeaf(child, [&](int leaf) {
                    for (int p : neighbors(leaf))
                        consider(p / 2);
                });
            } else {
                for (int kk : blossombestedges_[child])
                    consider(kk);
            }
            blossombestedges_[child].clear();
            hasBestList_[child] = 0;
            bestedge_[child] = -1;
        }
        blossombestedges_[b].clear();
        for (int kk : bestedgeto_)
            if (kk != -1)
                blossombestedges_[b].push_back(kk);
        hasBestList_[b] = 1;
        bestedge_[b] = -1;
        for (int kk : blossombestedges_[b])
            if (bestedge_[b] == -1 || slack(kk) < slack(bestedge_[b]))
                bestedge_[b] = kk;
    }

    void
    expandBlossom(int b, bool endstage)
    {
        for (int s : blossomchilds_[b]) {
            blossomparent_[s] = -1;
            if (s < n_) {
                inblossom_[s] = s;
            } else if (endstage && dualvar_[s] == 0) {
                expandBlossom(s, endstage);
            } else {
                forEachLeaf(s, [&](int v) { inblossom_[v] = s; });
            }
        }
        if (!endstage && label_[b] == 2) {
            // The expanding blossom was reached through labelend_[b];
            // relabel the even-length path of sub-blossoms between the
            // entry child and the base, and clear labels elsewhere.
            VLQ_ASSERT(labelend_[b] >= 0, "expand without entry edge");
            int entrychild = inblossom_[endpoint_[labelend_[b] ^ 1]];
            int j = 0;
            for (size_t i = 0; i < blossomchilds_[b].size(); ++i)
                if (blossomchilds_[b][i] == entrychild)
                    j = static_cast<int>(i);
            int jstep;
            int endptrick;
            const int nchilds = static_cast<int>(blossomchilds_[b].size());
            if (j & 1) {
                j -= nchilds;
                jstep = 1;
                endptrick = 0;
            } else {
                jstep = -1;
                endptrick = 1;
            }
            auto childAt = [&](int idx) {
                return blossomchilds_[b][static_cast<size_t>(
                    ((idx % nchilds) + nchilds) % nchilds)];
            };
            auto endpAt = [&](int idx) {
                return blossomendps_[b][static_cast<size_t>(
                    ((idx % nchilds) + nchilds) % nchilds)];
            };
            int p = labelend_[b];
            while (j != 0) {
                // Relabel the T-sub-blossom.
                label_[endpoint_[p ^ 1]] = 0;
                label_[endpoint_[endpAt(j - endptrick) ^ endptrick ^ 1]]
                    = 0;
                assignLabel(endpoint_[p ^ 1], 2, p);
                allowedge_[endpAt(j - endptrick) / 2] = 1;
                j += jstep;
                p = endpAt(j - endptrick) ^ endptrick;
                allowedge_[p / 2] = 1;
                j += jstep;
            }
            // Relabel the base T-sub-blossom without stepping through.
            int bv = childAt(j);
            label_[endpoint_[p ^ 1]] = 2;
            label_[bv] = 2;
            labelend_[endpoint_[p ^ 1]] = p;
            labelend_[bv] = p;
            bestedge_[bv] = -1;
            // Continue along the blossom until we get back to entrychild.
            j += jstep;
            while (childAt(j) != entrychild) {
                bv = childAt(j);
                if (label_[bv] == 1) {
                    j += jstep;
                    continue;
                }
                int labeled = -1;
                anyLeaf(bv, [&](int v) {
                    if (label_[v] == 0)
                        return false;
                    labeled = v;
                    return true;
                });
                if (labeled != -1) {
                    VLQ_ASSERT(label_[labeled] == 2, "expected T label");
                    VLQ_ASSERT(inblossom_[labeled] == bv,
                               "leaf blossom mismatch");
                    label_[labeled] = 0;
                    label_[endpoint_[mate_[blossombase_[bv]]]] = 0;
                    assignLabel(labeled, 2, labelend_[labeled]);
                }
                j += jstep;
            }
        }
        label_[b] = -1;
        labelend_[b] = -1;
        blossomchilds_[b].clear();
        blossomendps_[b].clear();
        blossombase_[b] = -1;
        blossombestedges_[b].clear();
        hasBestList_[b] = 0;
        bestedge_[b] = -1;
        unusedblossoms_.push_back(b);
    }

    void
    augmentBlossom(int b, int v)
    {
        // Bubble up through immediate children to find the one with v.
        int t = v;
        while (blossomparent_[t] != b)
            t = blossomparent_[t];
        if (t >= n_)
            augmentBlossom(t, v);
        int i = 0;
        const int nchilds = static_cast<int>(blossomchilds_[b].size());
        for (int idx = 0; idx < nchilds; ++idx)
            if (blossomchilds_[b][static_cast<size_t>(idx)] == t)
                i = idx;
        int j = i;
        int jstep;
        int endptrick;
        if (i & 1) {
            j -= nchilds;
            jstep = 1;
            endptrick = 0;
        } else {
            jstep = -1;
            endptrick = 1;
        }
        auto childAt = [&](int idx) {
            return blossomchilds_[b][static_cast<size_t>(
                ((idx % nchilds) + nchilds) % nchilds)];
        };
        auto endpAt = [&](int idx) {
            return blossomendps_[b][static_cast<size_t>(
                ((idx % nchilds) + nchilds) % nchilds)];
        };
        while (j != 0) {
            j += jstep;
            t = childAt(j);
            int p = endpAt(j - endptrick) ^ endptrick;
            if (t >= n_)
                augmentBlossom(t, endpoint_[p]);
            j += jstep;
            t = childAt(j);
            if (t >= n_)
                augmentBlossom(t, endpoint_[p ^ 1]);
            mate_[endpoint_[p]] = p ^ 1;
            mate_[endpoint_[p ^ 1]] = p;
        }
        // Rotate so that the child containing v becomes the base.
        std::rotate(blossomchilds_[b].begin(),
                    blossomchilds_[b].begin() + i, blossomchilds_[b].end());
        std::rotate(blossomendps_[b].begin(),
                    blossomendps_[b].begin() + i, blossomendps_[b].end());
        blossombase_[b] = blossombase_[blossomchilds_[b][0]];
        VLQ_ASSERT(blossombase_[b] == v, "augmentBlossom base mismatch");
    }

    void
    augmentMatching(int k)
    {
        for (int side = 0; side < 2; ++side) {
            int s = side == 0 ? edges_[k].u : edges_[k].v;
            int p = side == 0 ? 2 * k + 1 : 2 * k;
            for (;;) {
                int bs = inblossom_[s];
                VLQ_ASSERT(label_[bs] == 1, "augment expects S-blossom");
                VLQ_ASSERT(labelend_[bs] == mate_[blossombase_[bs]],
                           "augment labelend mismatch");
                if (bs >= n_)
                    augmentBlossom(bs, s);
                mate_[s] = p;
                if (labelend_[bs] == -1)
                    break; // reached the root of the tree
                int t = endpoint_[labelend_[bs]];
                int bt = inblossom_[t];
                VLQ_ASSERT(label_[bt] == 2, "augment expects T-blossom");
                VLQ_ASSERT(labelend_[bt] >= 0, "T-blossom without edge");
                s = endpoint_[labelend_[bt]];
                int j = endpoint_[labelend_[bt] ^ 1];
                VLQ_ASSERT(blossombase_[bt] == t, "T base mismatch");
                if (bt >= n_)
                    augmentBlossom(bt, j);
                mate_[j] = labelend_[bt];
                p = labelend_[bt] ^ 1;
            }
        }
    }

    /** One stage: grow trees until an augmenting path is found.
     *  @return true if the matching was augmented. */
    bool
    stage()
    {
        for (int b = 0; b < 2 * n_; ++b) {
            label_[b] = 0;
            bestedge_[b] = -1;
        }
        for (int b = n_; b < 2 * n_; ++b) {
            blossombestedges_[b].clear();
            hasBestList_[b] = 0;
        }
        std::fill(allowedge_.begin(), allowedge_.end(), 0);
        queue_.clear();
        for (int v = 0; v < n_; ++v)
            if (mate_[v] == -1 && label_[inblossom_[v]] == 0)
                assignLabel(v, 1, -1);

        bool augmented = false;
        for (;;) {
            while (!queue_.empty() && !augmented) {
                int v = queue_.back();
                queue_.pop_back();
                VLQ_ASSERT(label_[inblossom_[v]] == 1, "queue not S");
                for (int p : neighbors(v)) {
                    int k = p / 2;
                    int w = endpoint_[p];
                    if (inblossom_[v] == inblossom_[w])
                        continue;
                    int64_t kslack = 0;
                    if (!allowedge_[k]) {
                        kslack = slack(k);
                        if (kslack <= 0)
                            allowedge_[k] = 1;
                    }
                    if (allowedge_[k]) {
                        if (label_[inblossom_[w]] == 0) {
                            assignLabel(w, 2, p ^ 1);
                        } else if (label_[inblossom_[w]] == 1) {
                            int base = scanBlossom(v, w);
                            if (base >= 0) {
                                addBlossom(base, k);
                            } else {
                                augmentMatching(k);
                                augmented = true;
                                break;
                            }
                        } else if (label_[w] == 0) {
                            VLQ_ASSERT(label_[inblossom_[w]] == 2,
                                       "inconsistent label");
                            label_[w] = 2;
                            labelend_[w] = p ^ 1;
                        }
                    } else if (label_[inblossom_[w]] == 1) {
                        int bv = inblossom_[v];
                        if (bestedge_[bv] == -1 ||
                            kslack < slack(bestedge_[bv])) {
                            bestedge_[bv] = k;
                        }
                    } else if (label_[w] == 0) {
                        if (bestedge_[w] == -1 ||
                            kslack < slack(bestedge_[w])) {
                            bestedge_[w] = k;
                        }
                    }
                }
            }
            if (augmented)
                break;

            // Compute the dual adjustment.
            int deltatype = -1;
            int64_t delta = 0;
            int deltaedge = -1;
            int deltablossom = -1;

            if (!maxCard_) {
                deltatype = 1;
                int64_t minDual = dualvar_[0];
                for (int v = 1; v < n_; ++v)
                    minDual = std::min(minDual, dualvar_[v]);
                delta = std::max<int64_t>(0, minDual);
            }
            for (int v = 0; v < n_; ++v) {
                if (label_[inblossom_[v]] == 0 && bestedge_[v] != -1) {
                    int64_t d = slack(bestedge_[v]);
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 2;
                        deltaedge = bestedge_[v];
                    }
                }
            }
            for (int b = 0; b < 2 * n_; ++b) {
                if (blossomparent_[b] == -1 && label_[b] == 1 &&
                    bestedge_[b] != -1) {
                    int64_t kslack = slack(bestedge_[b]);
                    VLQ_ASSERT(kslack % 2 == 0, "odd slack");
                    int64_t d = kslack / 2;
                    if (deltatype == -1 || d < delta) {
                        delta = d;
                        deltatype = 3;
                        deltaedge = bestedge_[b];
                    }
                }
            }
            for (int b = n_; b < 2 * n_; ++b) {
                if (blossombase_[b] >= 0 && blossomparent_[b] == -1 &&
                    label_[b] == 2 &&
                    (deltatype == -1 || dualvar_[b] < delta)) {
                    delta = dualvar_[b];
                    deltatype = 4;
                    deltablossom = b;
                }
            }
            if (deltatype == -1) {
                // No further improvement possible (max-cardinality
                // optimum); make the final dual update non-negative.
                deltatype = 1;
                int64_t minDual = dualvar_[0];
                for (int v = 1; v < n_; ++v)
                    minDual = std::min(minDual, dualvar_[v]);
                delta = std::max<int64_t>(0, minDual);
            }

            // Apply the dual adjustment.
            for (int v = 0; v < n_; ++v) {
                int l = label_[inblossom_[v]];
                if (l == 1)
                    dualvar_[v] -= delta;
                else if (l == 2)
                    dualvar_[v] += delta;
            }
            for (int b = n_; b < 2 * n_; ++b) {
                if (blossombase_[b] >= 0 && blossomparent_[b] == -1) {
                    if (label_[b] == 1)
                        dualvar_[b] += delta;
                    else if (label_[b] == 2)
                        dualvar_[b] -= delta;
                }
            }

            if (deltatype == 1) {
                break; // optimum reached
            } else if (deltatype == 2) {
                allowedge_[deltaedge] = 1;
                int i = edges_[deltaedge].u;
                if (label_[inblossom_[i]] == 0)
                    i = edges_[deltaedge].v;
                VLQ_ASSERT(label_[inblossom_[i]] == 1, "delta2 not S");
                queue_.push_back(i);
            } else if (deltatype == 3) {
                allowedge_[deltaedge] = 1;
                int i = edges_[deltaedge].u;
                VLQ_ASSERT(label_[inblossom_[i]] == 1, "delta3 not S");
                queue_.push_back(i);
            } else {
                expandBlossom(deltablossom, false);
            }
        }

        // Expand all T-blossoms with zero dual at the end of the stage.
        for (int b = n_; b < 2 * n_; ++b) {
            if (blossomparent_[b] == -1 && blossombase_[b] >= 0 &&
                label_[b] == 2 && dualvar_[b] == 0) {
                expandBlossom(b, true);
            }
        }
        return augmented;
    }
};

/**
 * Load and solve one instance on the calling thread's Matcher. Decoders
 * call this once per shot, so the buffers live as long as the thread.
 */
void
solve(int numVertices, const std::vector<MatchEdge>& edges,
      bool maxCardinality, bool complement, std::vector<int>& mate)
{
    if (numVertices == 0 || edges.empty()) {
        mate.assign(static_cast<size_t>(numVertices), -1);
        return;
    }
    static thread_local Matcher matcher;
    matcher.reset(numVertices, edges, maxCardinality, complement);
    matcher.run(mate);
}

} // namespace

std::vector<int>
maxWeightMatching(int numVertices, const std::vector<MatchEdge>& edges,
                  bool maxCardinality)
{
    std::vector<int> mate;
    solve(numVertices, edges, maxCardinality, false, mate);
    return mate;
}

void
minWeightPerfectMatching(int numVertices, const std::vector<MatchEdge>& edges,
                         std::vector<int>& mate)
{
    // Complement weights: maximizing sum of (maxW + 1 - w) over a
    // maximum-cardinality matching minimizes sum(w) over perfect
    // matchings.
    solve(numVertices, edges, true, true, mate);
    for (int v = 0; v < numVertices; ++v)
        VLQ_ASSERT(mate[static_cast<size_t>(v)] >= 0,
                   "graph admits no perfect matching");
}

std::vector<int>
minWeightPerfectMatching(int numVertices, const std::vector<MatchEdge>& edges)
{
    std::vector<int> mate;
    minWeightPerfectMatching(numVertices, edges, mate);
    return mate;
}

} // namespace vlq
