# Generated Pregel vertex program for 'avg_teen_cnt'.

def _loop_0(ctx, active, slots):
    # par@4+par@4
    S_vids, S_msgs = [], []
    _n = 0
    for _n, vid in enumerate(active, 1):
        ctx._current_vertex = vid
        messages = slots[vid]
        F__gm_p_gm_r00[vid] = 0
        if ((F_age[vid] >= 13) and (F_age[vid] <= 19)):
            if OUT_OFF[vid] != OUT_OFF[vid + 1]:
                S_vids.append(vid)
                S_msgs.append((0,))
    if S_vids:
        ctx.send_nbrs_rows(S_vids, S_msgs)
    return _n

def _loop_2(ctx, active, slots):
    # recv@4+par@4+par@7+par@7
    B_K = B['K']
    P__gm_r1_vids, P__gm_r1_vals = [], []
    P__gm_r2_vals = []
    _n = 0
    for _n, vid in enumerate(active, 1):
        ctx._current_vertex = vid
        messages = slots[vid]
        for _m in messages:
            if _m[0] == 0:
                F__gm_p_gm_r00[vid] = F__gm_p_gm_r00[vid] + 1
        F_teen_cnt[vid] = F__gm_p_gm_r00[vid]
        if (F_age[vid] > B_K):
            P__gm_r1_vids.append(vid)
            P__gm_r1_vals.append(F_teen_cnt[vid])
            P__gm_r2_vals.append(1)
    if P__gm_r1_vids:
        ctx.put_global_bulk('_gm_r1', OP_SUM, P__gm_r1_vids, P__gm_r1_vals)
    if P__gm_r1_vids:
        ctx.put_global_bulk('_gm_r2', OP_SUM, P__gm_r1_vids, P__gm_r2_vals)
    return _n

PHASE_LOOPS = {0: _loop_0, 2: _loop_2}
